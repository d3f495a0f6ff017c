package uarch

import (
	"ccr/internal/emu"
	"ccr/internal/ir"
)

// kind selects the timing rule step applies to an instruction.
type kind uint8

const (
	kALU   kind = iota // result ready after the opcode latency
	kLd                // data-cache access; result after latency + miss
	kSt                // data-cache access off the critical path
	kJmp               // unconditional redirect
	kCBr               // BTB-predicted conditional branch
	kCall              // redirect and push a callee frame
	kRet               // redirect and pop the frame
	kInval             // one memory-port operation, no result
	kReuse             // the §3.3 reuse pipeline tasks (stepReuse)
)

// tentry is the static timing description of the instruction at one flat
// PC: everything the model reads from *ir.Instr, resolved once per
// program and packed to 32 bytes so a whole program's table stays in the
// first-level cache. NoReg operands index register 0, which is never
// written and so always reads as ready at cycle 0.
type tentry struct {
	kind kind
	fu   ir.FUClass
	lat  uint8
	src1 ir.Reg
	src2 ir.Reg
	// def is the register the instruction writes (NoReg when none); for a
	// Call it is the caller register receiving the result.
	def ir.Reg
	// aux is the kind's extra operand: a conditional branch's taken
	// target as a byte offset from pc, a St's object (the baselines'
	// version stamps), or a Call's or Reuse's index into table.ext.
	aux int32
	// br is a conditional branch's ordinal among the program's
	// conditional branches, which names its BTB entry (btbLayout). It
	// fills what would be padding, so the entry stays 32 bytes.
	br int32
	pc int64 // byte address
}

// textra holds the operand lists of a Call or Reuse entry.
type textra struct {
	// nregs is a Call's callee register-file size (NumRegs+1).
	nregs int
	// regs are a Call's argument registers or a Reuse's region inputs;
	// outs are a Reuse's region outputs.
	regs, outs []ir.Reg
}

// table is a program's per-PC timing table, built once per decoded
// program and shared read-only by every Simulator of it.
type table struct {
	dec   *ir.DecodedProgram
	funcs [][]tentry // by FuncID, then flat PC (the sentinel slot is zero)
	ext   []textra
	// maxRegs is the largest register file of any function, which sizes
	// every frame's ready array.
	maxRegs int
	// textBytes bounds every instruction's byte address: each lies in
	// [0, textBytes). It sizes the I-cache tag array.
	textBytes int64
	// brPCs is the byte address of each conditional branch, by ordinal.
	brPCs []int64
}

type tableKey struct{}

// tableFor returns prog's timing table, building it on first use.
func tableFor(prog *ir.Program) *table {
	return prog.Decoded().Ext(tableKey{}, buildTable).(*table)
}

func buildTable(d *ir.DecodedProgram) any {
	p := d.Prog
	t := &table{dec: d, funcs: make([][]tentry, len(d.Funcs))}
	for _, f := range p.Funcs {
		if n := f.NumRegs + 1; n > t.maxRegs {
			t.maxRegs = n
		}
	}
	for fid, df := range d.Funcs {
		ents := make([]tentry, len(df.Code))
		for pc := range ents[:len(ents)-1] {
			in := df.Meta[pc].Src
			e := &ents[pc]
			e.fu, e.lat = in.Op.FU(), uint8(in.Op.Latency())
			e.src1, e.src2, e.def = in.Src1, in.Src2, in.Def()
			e.pc = df.Addr(int32(pc))
			switch in.Op {
			case ir.Ld:
				e.kind = kLd
			case ir.St:
				e.kind, e.aux = kSt, int32(in.Mem)
			case ir.Jmp:
				e.kind = kJmp
			case ir.Beq, ir.Bne, ir.Blt, ir.Bge, ir.Ble, ir.Bgt:
				e.kind, e.aux = kCBr, 4*(df.Code[pc].Target-int32(pc))
				e.br = int32(len(t.brPCs))
				t.brPCs = append(t.brPCs, e.pc)
			case ir.Call:
				x := textra{nregs: t.maxRegs, regs: in.Args}
				if callee := p.Func(in.Callee); callee != nil {
					x.nregs = callee.NumRegs + 1
				}
				e.kind, e.def, e.aux = kCall, in.Dest, int32(len(t.ext))
				t.ext = append(t.ext, x)
			case ir.Ret:
				e.kind = kRet
			case ir.Inval:
				e.kind = kInval
			case ir.Reuse:
				var x textra
				if rg := p.Region(in.Region); rg != nil {
					x.regs, x.outs = rg.Inputs, rg.Outputs
				}
				e.kind, e.aux = kReuse, int32(len(t.ext))
				t.ext = append(t.ext, x)
			}
		}
		t.funcs[fid] = ents
		// The sentinel slot's address is one past the function's last
		// instruction.
		t.textBytes = max(t.textBytes, df.Addr(int32(len(ents)-1)))
	}
	return t
}

// btbLayout is a program's BTB at one entry count: only conditional
// branches index the BTB, each the entry (pc>>2)&(entries-1), so a
// simulator allocates just the entries they name. slot numbers those
// entries densely by branch ordinal; branches that alias one index share
// a slot, exactly as they share the entry of the full array.
type btbLayout struct {
	slot []int32
	n    int // distinct entries named
}

type btbKey struct{ entries int }

// btbFor returns the program's BTB layout at entries, building it on
// first use per decoded program and entry count.
func (t *table) btbFor(entries int) *btbLayout {
	return t.dec.Ext(btbKey{entries}, func(*ir.DecodedProgram) any {
		return newBTBLayout(entries, t.brPCs)
	}).(*btbLayout)
}

func newBTBLayout(entries int, pcs []int64) *btbLayout {
	mask := int64(max(entries, 1) - 1)
	l := &btbLayout{slot: make([]int32, len(pcs))}
	dense := make(map[int64]int32, len(pcs))
	for i, pc := range pcs {
		idx := (pc >> 2) & mask
		s, ok := dense[idx]
		if !ok {
			s = int32(len(dense))
			dense[idx] = s
		}
		l.slot[i] = s
	}
	l.n = len(dense)
	return l
}

// flatPC returns the function and flat PC of the instruction an event
// describes.
func (s *Simulator) flatPC(ev *emu.Event) (ir.FuncID, int32) {
	fid := ev.Func.ID
	return fid, s.tab.dec.Funcs[fid].PCFor(ev.Block, ev.Index)
}
