package ir

import "sync"

// This file implements the predecoded ("flattened") program representation
// the execution engine runs on. At link time each function's basic blocks
// are lowered into one dense PInstr array in block order, with every
// operand the hot loop needs resolved up front:
//
//   - control-flow targets become flat PCs (empty blocks are resolved to
//     the next real instruction, so the interpreter's iterative
//     fall-through walk disappears),
//   - the byte address of every instruction is an affine function of its
//     flat PC (Base + 4*pc), eliminating the per-event InstrAddr/pcOf
//     block arithmetic,
//   - Lea base addresses and Ld/St hinted-object bounds are folded in, so
//     the hot loop never chases *MemObject pointers.
//
// Fall-through needs no representation at all: blocks are contiguous, so
// the successor of flat PC p is p+1, exactly mirroring the block-ordered
// fall-through semantics of the CFG form (empty blocks execute nothing on
// either representation). A PC of len(Code) is the "fell off the end of
// the function" sentinel.
//
// PInstr is deliberately packed to 48 bytes: the per-opcode identifier
// fields (callee, memory object, region) occupy one shared Aux slot, and
// the CFG coordinates plus the back-pointer to the original instruction
// live in a parallel PMeta array that only the cold paths (trace events,
// faults, memoization look-ahead) touch. Keeping the hot array small is
// what lets whole functions sit in L1 during emulation.
//
// The decoded form is a pure cache: it holds pointers back into the
// Program (PMeta.Src, DecodedFunc.Fn) and never owns semantic state, so
// consumers observing instructions through events see the live *Instr.

// OpSentinel is the opcode of the pseudo-instruction appended after each
// function's last real instruction. It exists only in the decoded form:
// falling through to it (or taking an unresolvable branch target, which
// decodes to its PC) raises the "fell off end of function" fault without a
// per-iteration end-of-code test in the hot loop. It is never counted in
// Stats.ByOp; 63 is far above numOpcodes but still inside the ByOp array.
const OpSentinel Opcode = 63

// RegFileCap is the minimum capacity of every register file the emulator
// allocates for functions with fewer registers. Sizing the backing array
// to a fixed power of two lets the batch engine view it as a *[RegFileCap]
// array and index it with uint8 register numbers, which provably cannot go
// out of bounds — the bounds checks vanish from the hot loop. Functions
// with NumRegs >= RegFileCap simply aren't batch-decodable (XCode == nil).
const RegFileCap = 256

// PInstr is one predecoded instruction: the fields the execution hot loop
// needs, and nothing else (see PMeta for the cold remainder).
type PInstr struct {
	Op   Opcode
	Attr Attr

	Dest Reg
	Src1 Reg
	Src2 Reg // NoReg selects Imm, as in Instr

	// Target is the flat PC a branch or reuse instruction transfers to:
	// the first real instruction at or after the target block, or
	// len(Code) when the target resolves past the end of the function.
	// It is -1 for non-branching opcodes.
	Target int32

	// Aux is the per-opcode identifier operand: the FuncID of a Call, the
	// MemID of a Ld/St/Lea/Inval (NoMem when unhinted), or the RegionID
	// of a Reuse. Zero otherwise.
	Aux int32

	Imm int64

	// ObjLo and ObjHi are precomputed object bounds: for Ld/St with a
	// static object hint they are the hinted object's [Base, Base+Size)
	// word range (ObjHi is -1 when unhinted); for Lea, ObjLo is the
	// object's base address.
	ObjLo, ObjHi int64
}

// PMeta is the cold per-instruction metadata, parallel to DecodedFunc.Code:
// the CFG coordinates and the original instruction, needed only for trace
// events, fault reporting, and memoization bookkeeping.
type PMeta struct {
	Block BlockID
	Index int32
	// Src is the original instruction this PInstr was decoded from.
	Src *Instr
}

// XInstr is the batch-mode form of one instruction: a 32-byte record whose
// opcode is specialized by operand shape (register-register vs immediate)
// so the batch loop's cases are straight-line loads and stores with no
// NoReg selects, and whose register numbers are uint8 so indexing the
// *[RegFileCap]int64 register file needs no bounds checks. Identifier
// operands that only cold paths need (the callee of a call, the region of
// a reuse, the object of an invalidate) are packed into ObjLo; Ld/St keep
// their hinted bounds in ObjLo/ObjHi and recover the object for fault
// messages through PMeta.
type XInstr struct {
	XOp  uint8
	Dest uint8
	Src1 uint8
	Src2 uint8

	// Target is the flat PC of a control transfer (same encoding as
	// PInstr.Target).
	Target int32

	// Imm is the immediate operand; for Lea it is pre-folded to
	// base+offset.
	Imm int64

	// ObjLo/ObjHi are the Ld/St hinted-object bounds (ObjHi < 0 when
	// unhinted); for Call, Reuse and Inval, ObjLo carries the callee,
	// region, or object identifier instead.
	ObjLo, ObjHi int64
}

// Batch opcodes. The R/I suffix gives the Src2 shape; ops requiring a real
// (non-NoReg) register operand are only emitted when the decode proves it,
// otherwise the whole function is left without an XCode and runs on the
// careful loop.
const (
	XBad uint8 = iota // unbatchable slot; never present in a built XCode
	XNop
	XMovR // Dest = Src1
	XMovI // Dest = Imm
	XLeaR // Dest = Imm + Src1 (Imm pre-folded with the object base)
	XLeaI // Dest = Imm
	XAddRR
	XAddRI
	XSubRR
	XSubRI
	XMulRR
	XMulRI
	XDivRR
	XDivRI
	XRemRR
	XRemRI
	XAndRR
	XAndRI
	XOrRR
	XOrRI
	XXorRR
	XXorRI
	XShlRR
	XShlRI
	XShrRR
	XShrRI
	XSraRR
	XSraRI
	XSltRR
	XSltRI
	XSleRR
	XSleRI
	XSeqRR
	XSeqRI
	XSneRR
	XSneRI
	XLd // Dest = mem[Src1+Imm], hint bounds in ObjLo/ObjHi
	XSt // mem[Src1+Imm] = Src2
	XJmp
	XBeqRR
	XBeqRI
	XBneRR
	XBneRI
	XBltRR
	XBltRI
	XBgeRR
	XBgeRI
	XBleRR
	XBleRI
	XBgtRR
	XBgtRI
	XCall  // callee in ObjLo
	XRetR  // return Src1
	XRetI  // return Imm
	XReuse // region in ObjLo
	XInval // object in ObjLo
	XEnd   // the OpSentinel slot
)

// DecodedFunc is the flat form of one function.
type DecodedFunc struct {
	Fn   *Func
	Code []PInstr
	Meta []PMeta // parallel to Code

	// XCode is the batch-specialized form, parallel to Code (including the
	// sentinel slot). It is nil when any instruction has a shape the batch
	// loop doesn't specialize (degenerate NoReg operands, unknown opcodes)
	// or when the register file exceeds RegFileCap; such functions execute
	// on the careful loop only.
	XCode []XInstr

	// RunEnd[pc] is the flat PC of the control-transfer instruction (or
	// sentinel) that ends the straight-line run containing pc. Every
	// execution entering at pc runs exactly the instructions [pc,
	// RunEnd[pc]] before transferring control, which is what lets the
	// batch loop account instruction counts per run instead of per
	// instruction.
	RunEnd []int32

	// BlockPC[b] is the flat PC of block b's first instruction; for an
	// empty block it is the PC of the next real instruction in block
	// order. BlockPC[len(Fn.Blocks)] is the sentinel PC (== len(Code)-1).
	BlockPC []int32

	// Base is the byte address of flat PC 0; the instruction at flat PC p
	// has byte address Base + 4*p. This equality holds for every (block,
	// index) position because Link assigns text addresses contiguously in
	// block order — see TestPredecodeAddrRoundTrip.
	Base int64

	// EntryPC[pc] marks the flat PCs where a run can be entered: the
	// function entry, every control transfer's successor, and every
	// resolved branch/reuse target. Superinstruction fusion never pairs
	// across an entry (see superinstr.go).
	EntryPC []bool

	// RunOps[pc] and RunBr[pc] are the precomputed per-run statistics
	// deltas of the run [pc, RunEnd[pc]]: the opcode-count list and the
	// conditional-branch count. flushOpCounts folds one of these per run
	// entry instead of carry-sweeping the whole text.
	RunOps [][]OpCount
	RunBr  []int32
}

// PCFor returns the flat PC of the instruction at (b, idx). It is the
// inverse of the Meta coordinates of the PInstr it designates.
func (df *DecodedFunc) PCFor(b BlockID, idx int) int32 {
	return df.BlockPC[b] + int32(idx)
}

// Addr returns the byte address of the given flat PC (also valid for the
// one-past-the-end sentinel).
func (df *DecodedFunc) Addr(pc int32) int64 {
	return df.Base + 4*int64(pc)
}

// DecodedProgram is the predecoded view of a whole linked program.
type DecodedProgram struct {
	Prog  *Program
	Funcs []*DecodedFunc // indexed by FuncID

	// MaxRun is the length in instructions of the program's longest
	// straight-line run (max RunEnd[pc]-pc+1 over every function): an
	// upper bound on the instructions one run entry executes, which sizes
	// per-run scratch buffers once per program.
	MaxRun int

	// ext caches tables other packages derive from this form (see Ext).
	ext sync.Map
}

// Ext returns the table build derives from d, building it on the first
// call per key and caching it for the life of the decoded form (Link
// discards both). Keys should be values of an unexported type of the
// calling package so packages never collide. Concurrent first callers may
// each build; one result wins, so build must be deterministic and its
// result read-only.
func (d *DecodedProgram) Ext(key any, build func(*DecodedProgram) any) any {
	if v, ok := d.ext.Load(key); ok {
		return v
	}
	v, _ := d.ext.LoadOrStore(key, build(d))
	return v
}

// Decoded returns the predecoded form of the program, building and
// caching it on first use. The cache is invalidated by Link, so the
// decoded form always reflects the current layout; concurrent callers may
// race to build it, in which case one result wins and the duplicates are
// discarded (decoding is deterministic, so every candidate is identical).
// Link must have run.
func (p *Program) Decoded() *DecodedProgram {
	if d := p.decoded.Load(); d != nil {
		return d
	}
	d := decodeProgram(p)
	if p.decoded.CompareAndSwap(nil, d) {
		return d
	}
	return p.decoded.Load()
}

func decodeProgram(p *Program) *DecodedProgram {
	d := &DecodedProgram{Prog: p, Funcs: make([]*DecodedFunc, len(p.Funcs))}
	for _, f := range p.Funcs {
		df := decodeFunc(p, f)
		d.Funcs[f.ID] = df
		for pc, end := range df.RunEnd {
			if n := int(end) - pc + 1; n > d.MaxRun {
				d.MaxRun = n
			}
		}
	}
	return d
}

func decodeFunc(p *Program, f *Func) *DecodedFunc {
	n := f.NumInstrs()
	df := &DecodedFunc{
		Fn:      f,
		Code:    make([]PInstr, 0, n+1),
		Meta:    make([]PMeta, 0, n+1),
		BlockPC: make([]int32, len(f.Blocks)+1),
		Base:    int64(f.textBase) * 4,
	}
	pc := int32(0)
	for _, b := range f.Blocks {
		df.BlockPC[b.ID] = pc
		for i := range b.Instrs {
			in := &b.Instrs[i]
			pi := PInstr{
				Op:     in.Op,
				Attr:   in.Attr,
				Dest:   in.Dest,
				Src1:   in.Src1,
				Src2:   in.Src2,
				Imm:    in.Imm,
				Target: -1,
			}
			switch in.Op {
			case Call:
				pi.Aux = int32(in.Callee)
			case Reuse:
				pi.Aux = int32(in.Region)
			case Lea:
				pi.Aux = int32(in.Mem)
				pi.ObjLo = p.Objects[in.Mem].Base
			case Ld, St:
				pi.Aux = int32(in.Mem)
				if in.Mem != NoMem {
					o := p.Objects[in.Mem]
					pi.ObjLo, pi.ObjHi = o.Base, o.Base+o.Size
				} else {
					pi.ObjHi = -1 // no hinted-bounds check
				}
			case Inval:
				pi.Aux = int32(in.Mem)
			}
			df.Code = append(df.Code, pi)
			df.Meta = append(df.Meta, PMeta{Block: b.ID, Index: int32(i), Src: in})
			pc++
		}
	}
	df.BlockPC[len(f.Blocks)] = pc
	// The sentinel slot: falling through here (or branching to an
	// unresolvable target, below) is the "fell off end of function" fault.
	df.Code = append(df.Code, PInstr{Op: OpSentinel, Target: -1})
	df.Meta = append(df.Meta, PMeta{Block: BlockID(len(f.Blocks)), Index: 0})
	sentinel := int32(len(df.Code) - 1)
	// Second pass: resolve block targets to flat PCs (targets may be
	// forward references). An out-of-range target — which only an
	// unverified program can hold — resolves to the sentinel so taking it
	// faults instead of corrupting the PC.
	for i := range df.Code {
		pi := &df.Code[i]
		switch pi.Op {
		case Jmp, Beq, Bne, Blt, Bge, Ble, Bgt, Reuse:
			t := df.Meta[i].Src.Target
			if t >= 0 && int(t) < len(f.Blocks) {
				pi.Target = df.BlockPC[t]
			} else {
				pi.Target = sentinel
			}
		}
	}
	// RunEnd: walk backwards so each slot inherits the next control
	// transfer (the sentinel ends the final run).
	df.RunEnd = make([]int32, len(df.Code))
	df.RunEnd[sentinel] = sentinel
	for i := int(sentinel) - 1; i >= 0; i-- {
		switch df.Code[i].Op {
		case Jmp, Beq, Bne, Blt, Bge, Ble, Bgt, Call, Ret, Reuse:
			df.RunEnd[i] = int32(i)
		default:
			df.RunEnd[i] = df.RunEnd[i+1]
		}
	}
	df.EntryPC = entryPCs(df)
	df.RunOps, df.RunBr = runDeltas(df)
	df.XCode = batchDecode(df)
	if df.XCode != nil {
		fuseXCode(df.XCode, df.EntryPC)
	}
	return df
}

// batchDecode builds the operand-shape-specialized batch form, or returns
// nil if any instruction can't be specialized (the careful loop then runs
// the whole function).
func batchDecode(df *DecodedFunc) []XInstr {
	if df.Fn.NumRegs+1 > RegFileCap {
		return nil
	}
	maxReg := Reg(df.Fn.NumRegs)
	reg := func(r Reg) (uint8, bool) {
		return uint8(r), r >= 0 && r <= maxReg
	}
	xcode := make([]XInstr, len(df.Code))
	for i := range df.Code {
		in := &df.Code[i]
		xi := &xcode[i]
		xi.Target = in.Target
		xi.Imm = in.Imm
		d, dok := reg(in.Dest)
		s1, s1ok := reg(in.Src1)
		s2, s2ok := reg(in.Src2)
		if !dok || !s1ok || !s2ok {
			return nil
		}
		xi.Dest, xi.Src1, xi.Src2 = d, s1, s2
		r1 := in.Src1 != NoReg // real register operands
		r2 := in.Src2 != NoReg
		// alu picks the RR or RI variant of a binary ALU op; rr must be
		// rr+1 == ri, as laid out in the constant block.
		alu := func(rr uint8) bool {
			if !r1 {
				return false
			}
			xi.XOp = rr
			if !r2 {
				xi.XOp = rr + 1
			}
			return true
		}
		ok := true
		switch in.Op {
		case Nop:
			xi.XOp = XNop
		case Mov:
			if r1 {
				xi.XOp = XMovR
			} else {
				xi.XOp, xi.Imm = XMovI, 0
			}
		case MovI:
			xi.XOp = XMovI
		case Lea:
			xi.Imm = in.ObjLo + in.Imm
			if r1 {
				xi.XOp = XLeaR
			} else {
				xi.XOp = XLeaI
			}
		case Add:
			ok = alu(XAddRR)
		case Sub:
			ok = alu(XSubRR)
		case Mul:
			ok = alu(XMulRR)
		case Div:
			ok = alu(XDivRR)
		case Rem:
			ok = alu(XRemRR)
		case And:
			ok = alu(XAndRR)
		case Or:
			ok = alu(XOrRR)
		case Xor:
			ok = alu(XXorRR)
		case Shl:
			ok = alu(XShlRR)
		case Shr:
			ok = alu(XShrRR)
		case Sra:
			ok = alu(XSraRR)
		case Slt:
			ok = alu(XSltRR)
		case Sle:
			ok = alu(XSleRR)
		case Seq:
			ok = alu(XSeqRR)
		case Sne:
			ok = alu(XSneRR)
		case Ld:
			ok = r1
			xi.XOp = XLd
			xi.ObjLo, xi.ObjHi = in.ObjLo, in.ObjHi
		case St:
			ok = r1 && r2
			xi.XOp = XSt
			xi.ObjLo, xi.ObjHi = in.ObjLo, in.ObjHi
		case Jmp:
			xi.XOp = XJmp
		case Beq:
			ok = alu(XBeqRR)
		case Bne:
			ok = alu(XBneRR)
		case Blt:
			ok = alu(XBltRR)
		case Bge:
			ok = alu(XBgeRR)
		case Ble:
			ok = alu(XBleRR)
		case Bgt:
			ok = alu(XBgtRR)
		case Call:
			xi.XOp = XCall
			xi.ObjLo = int64(in.Aux)
		case Ret:
			if r1 {
				xi.XOp = XRetR
			} else {
				xi.XOp = XRetI
			}
		case Reuse:
			xi.XOp = XReuse
			xi.ObjLo = int64(in.Aux)
		case Inval:
			xi.XOp = XInval
			xi.ObjLo = int64(in.Aux)
		case OpSentinel:
			xi.XOp = XEnd
		default:
			ok = false
		}
		if !ok {
			return nil
		}
	}
	return xcode
}
