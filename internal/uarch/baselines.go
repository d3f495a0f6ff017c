package uarch

import (
	"ccr/internal/analysis"
	"ccr/internal/emu"
	"ccr/internal/ir"
)

// This file implements the two hardware-only reuse baselines the paper
// positions CCR against (§2.1):
//
//   - dynamic instruction reuse (Sodani & Sohi): a PC-indexed reuse buffer
//     holds (operands → result) per instruction; a hit bypasses the
//     functional unit, the result is available at issue, and a reused
//     branch resolves without misprediction.
//   - block-level reuse (Huang & Lilja): a block-indexed buffer records a
//     basic block's upward-exposed input values and its definitions; a hit
//     skips the whole block's execution.
//
// Both are pure timing mechanisms here: they never change architectural
// results (they reuse only exact matches), so they hook into the cycle
// model rather than the emulator. Both validate loads with object version
// stamps, the hardware analogue of "the referenced location has not been
// stored to since".

// instrRBEntry is one entry of the instruction reuse buffer.
type instrRBEntry struct {
	pc     int64
	v1, v2 int64
	isLoad bool
	mem    ir.MemID
	ver    uint64
	valid  bool
}

// instrRB is a 4-way set-associative reuse buffer: each set can hold
// several (operand → result) records, possibly for the same static
// instruction, so short operand cycles are still captured (Sodani & Sohi's
// scheme Sv stores one tuple per RB entry but allows several entries per
// instruction).
type instrRB struct {
	entries []instrRBEntry // sets × ways
	sets    int64
	clock   uint64
	used    []uint64
}

// The baselines' buffer sizes: instrRBEntries instruction records in
// sets of instrRBWays, and blockRBEntries basic blocks × blockRBInstances
// recorded executions each.
const (
	instrRBWays      = 4
	instrRBEntries   = 1024
	blockRBEntries   = 128
	blockRBInstances = 8
)

func newInstrRB() *instrRB {
	return &instrRB{
		entries: make([]instrRBEntry, instrRBEntries),
		sets:    instrRBEntries / instrRBWays,
		used:    make([]uint64, instrRBEntries),
	}
}

func (rb *instrRB) set(pc int64) (int64, int64) {
	s := (pc >> 2) % rb.sets
	return s * instrRBWays, s*instrRBWays + instrRBWays
}

// lookup reports whether the instruction at pc previously executed with
// the same operands (and, for loads, untouched memory).
func (rb *instrRB) lookup(pc, v1, v2 int64, isLoad bool, mem ir.MemID, ver uint64) bool {
	lo, hi := rb.set(pc)
	rb.clock++
	for i := lo; i < hi; i++ {
		e := &rb.entries[i]
		if !e.valid || e.pc != pc || e.v1 != v1 || e.v2 != v2 {
			continue
		}
		if isLoad && (e.mem != mem || e.ver != ver) {
			continue
		}
		rb.used[i] = rb.clock
		return true
	}
	return false
}

func (rb *instrRB) update(pc, v1, v2 int64, isLoad bool, mem ir.MemID, ver uint64) {
	lo, hi := rb.set(pc)
	rb.clock++
	slot := lo
	var oldest uint64 = ^uint64(0)
	for i := lo; i < hi; i++ {
		if !rb.entries[i].valid {
			slot = i
			break
		}
		if rb.used[i] < oldest {
			oldest = rb.used[i]
			slot = i
		}
	}
	rb.entries[slot] = instrRBEntry{pc: pc, v1: v1, v2: v2, isLoad: isLoad, mem: mem, ver: ver, valid: true}
	rb.used[slot] = rb.clock
}

// blockSig is one recorded execution of a basic block.
type blockSig struct {
	inputs []int64
	vers   []uint64
	valid  bool
	used   uint64
}

// blockRBEntry holds several signatures for one block (the analogue of
// computation instances).
type blockRBEntry struct {
	sigs []blockSig
	// lastUse orders entries for deterministic LRU eviction.
	lastUse uint64
}

// blockInfo is the static description the block-reuse hardware needs.
type blockInfo struct {
	eligible bool     // no stores, calls, returns, CCR ops
	inputs   []ir.Reg // upward-exposed uses
	defs     []ir.Reg // registers defined
	objs     []ir.MemID
	size     int
}

// blockRB is the block-level reuse buffer.
type blockRB struct {
	table map[int64]*blockRBEntry // keyed by block start PC
	clock uint64
	info  map[int64]*blockInfo // block start PC → static info
}

func newBlockRB(prog *ir.Program) *blockRB {
	b := &blockRB{
		table: map[int64]*blockRBEntry{},
		info:  map[int64]*blockInfo{},
	}
	var uses []ir.Reg
	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			if len(blk.Instrs) == 0 {
				continue
			}
			bi := &blockInfo{eligible: true, size: len(blk.Instrs)}
			defs := analysis.NewRegSet(f.NumRegs)
			ups := analysis.NewRegSet(f.NumRegs)
			objSeen := map[ir.MemID]bool{}
			for i := range blk.Instrs {
				in := &blk.Instrs[i]
				switch in.Op {
				case ir.St, ir.Call, ir.Ret, ir.Reuse, ir.Inval:
					bi.eligible = false
				case ir.Ld:
					if in.Mem == ir.NoMem {
						bi.eligible = false
					} else if !objSeen[in.Mem] {
						objSeen[in.Mem] = true
						bi.objs = append(bi.objs, in.Mem)
					}
				}
				uses = in.Uses(uses[:0])
				for _, r := range uses {
					if !defs.Has(r) {
						ups.Add(r)
					}
				}
				if d := in.Def(); d != ir.NoReg {
					defs.Add(d)
				}
			}
			bi.inputs = ups.Members()
			bi.defs = defs.Members()
			b.info[f.InstrAddr(blk.ID, 0)] = bi
		}
	}
	return b
}

// lookup checks whether the block starting at pc can be reused with the
// current register file and object versions. It returns the static info
// for timing on a hit.
func (b *blockRB) lookup(pc int64, regs []int64, objVer []uint64) (*blockInfo, bool) {
	bi := b.info[pc]
	if bi == nil || !bi.eligible {
		return bi, false
	}
	e := b.table[pc]
	if e == nil {
		return bi, false
	}
	b.clock++
	e.lastUse = b.clock
	for i := range e.sigs {
		s := &e.sigs[i]
		if !s.valid {
			continue
		}
		ok := true
		for j, r := range bi.inputs {
			if regs[r] != s.inputs[j] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j, o := range bi.objs {
			if objVer[o] != s.vers[j] {
				ok = false
				break
			}
		}
		if ok {
			s.used = b.clock
			return bi, true
		}
	}
	return bi, false
}

// record stores the block's current input signature.
func (b *blockRB) record(pc int64, regs []int64, objVer []uint64) {
	bi := b.info[pc]
	if bi == nil || !bi.eligible {
		return
	}
	e := b.table[pc]
	if e == nil {
		if len(b.table) >= blockRBEntries {
			// Evict the least-recently-used resident block, breaking
			// ties by lowest PC, so runs are reproducible (map
			// iteration order is not).
			var victim int64
			var oldest uint64 = ^uint64(0)
			for k, v := range b.table {
				if v.lastUse < oldest || (v.lastUse == oldest && k < victim) {
					oldest = v.lastUse
					victim = k
				}
			}
			delete(b.table, victim)
		}
		e = &blockRBEntry{sigs: make([]blockSig, blockRBInstances)}
		b.table[pc] = e
	}
	b.clock++
	e.lastUse = b.clock
	slot := 0
	var oldest uint64 = ^uint64(0)
	for i := range e.sigs {
		if !e.sigs[i].valid {
			slot = i
			break
		}
		if e.sigs[i].used < oldest {
			oldest = e.sigs[i].used
			slot = i
		}
	}
	sig := &e.sigs[slot]
	sig.valid = true
	sig.used = b.clock
	sig.inputs = sig.inputs[:0]
	for _, r := range bi.inputs {
		sig.inputs = append(sig.inputs, regs[r])
	}
	sig.vers = sig.vers[:0]
	for _, o := range bi.objs {
		sig.vers = append(sig.vers, objVer[o])
	}
}

// observeInstrReuse implements the instruction-reuse timing shortcut for
// ev, whose static entry is e. It returns true when the event was fully
// handled (reused).
func (s *Simulator) observeInstrReuse(ev *emu.Event, e *tentry, fetch int64) bool {
	in := ev.Instr
	switch in.Op {
	case ir.St, ir.Call, ir.Ret, ir.Jmp, ir.Nop, ir.Reuse, ir.Inval:
		return false // not reuse candidates
	}
	isLoad := in.Op == ir.Ld
	var ver uint64
	mem := in.Mem
	if isLoad {
		if mem == ir.NoMem {
			return false
		}
		ver = s.objVer[mem]
	}
	v1, v2 := ev.Val1, ev.Val2
	if !s.irb.lookup(ev.PC, v1, v2, isLoad, mem, ver) {
		s.irb.update(ev.PC, v1, v2, isLoad, mem, ver)
		return false
	}
	s.stats.InstrReuseHits++
	// The instruction still occupies an issue slot (dispatch detects the
	// reuse), but needs no functional unit, its result is ready
	// immediately, and a reused branch resolves without misprediction.
	issue := s.issueAt(fetch, ir.FUNone)
	if in.Op.IsCondBranch() {
		s.btb.update(e.br, ev.PC, ev.Taken, ev.TargetPC)
		if ev.Taken {
			s.redirect(issue, int64(s.cfg.TakenBubble))
		}
	} else if d := in.Def(); d != ir.NoReg {
		s.setReady(d, issue)
	}
	if s.head < issue {
		s.head = issue
	}
	return true
}

// observeBlockReuse implements the block-reuse timing shortcut; returns
// true when the event belongs to a reused block and was handled. A hit
// covers the block's remaining size−1 instructions, which are the next
// size−1 events (eligible blocks hold no calls), so those are skipped by
// count: a block that branches back to its own start is looked up again
// on every iteration.
func (s *Simulator) observeBlockReuse(ev *emu.Event) bool {
	if s.bskip > 0 {
		// Skipping the remainder of a reused block.
		s.bskip--
		return true
	}
	if ev.Index != 0 {
		return false
	}
	bi, hit := s.brb.lookup(ev.PC, ev.Regs, s.objVer)
	if bi == nil || !bi.eligible {
		return false
	}
	if !hit {
		s.brb.record(ev.PC, ev.Regs, s.objVer)
		return false
	}
	s.stats.BlockReuseHits++
	s.stats.BlockReuseInstrs += int64(bi.size)
	// Access + validate, then commit the block's definitions.
	issue := s.issueAt(s.head, ir.FUBranch)
	done := issue + 2 + int64((len(bi.defs)+s.cfg.ReuseCommitWidth-1)/s.cfg.ReuseCommitWidth)
	for _, d := range bi.defs {
		s.setReady(d, done)
	}
	s.redirect(done-1, int64(s.cfg.TakenBubble))
	s.bskip = bi.size - 1
	return true
}
