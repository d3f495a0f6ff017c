package uarch

import (
	"ccr/internal/emu"
	"ccr/internal/ir"
)

// This file adds a dynamically scheduled (out-of-order) variant of the
// timing model. §3.3 notes the CCR mechanism "contains relevant material
// applicable to a generic dynamically scheduled superscalar processor";
// this model lets the reproduction ask how much of the reuse benefit
// survives when the machine can already extract ILP across dependences:
// reuse still eliminates work (fetch bandwidth, functional units, load
// ports) but no longer shortcuts latency the scheduler could hide.
//
// The model is trace-driven: each instruction is fetched in order at up to
// IssueWidth per cycle, dispatches into an idealized window bounded only
// by the reorder buffer, issues when its operands and a functional unit
// are ready (possibly out of order), and retires in order. Branch
// mispredictions redirect fetch after the branch issues.

// oooState holds the out-of-order scheduling structures.
type oooState struct {
	// fetchHead is the cycle the next instruction can fetch.
	fetchHead int64
	// fetched counts instructions fetched in the fetchHead cycle.
	fetched int

	// retire ring: completion cycles of the last ROBSize instructions,
	// in fetch order; fetch stalls until the instruction leaving the
	// window has retired. lastRetire enforces in-order retirement.
	retireAt   []int64
	robIdx     int
	lastRetire int64

	// fuWindow approximates per-cycle issue-slot and unit occupancy for
	// out-of-order issue (issue cycles are not monotone, so the in-order
	// single-bucket trick does not apply).
	fuTag   []int64
	fuSlots []int
	fuUsed  [][4]int
}

const fuWindowSize = 1024

func newOOOState(robSize int) *oooState {
	if robSize <= 0 {
		robSize = 64
	}
	return &oooState{
		retireAt: make([]int64, robSize),
		fuTag:    make([]int64, fuWindowSize),
		fuSlots:  make([]int, fuWindowSize),
		fuUsed:   make([][4]int, fuWindowSize),
	}
}

// issueAtOOO finds the first cycle ≥ want with a free issue slot and unit.
func (s *Simulator) issueAtOOO(want int64, fu ir.FUClass) int64 {
	o := s.ooo
	for c := want; ; c++ {
		b := c % fuWindowSize
		if o.fuTag[b] != c {
			o.fuTag[b] = c
			o.fuSlots[b] = 0
			o.fuUsed[b] = [4]int{}
		}
		if o.fuSlots[b] < s.cfg.IssueWidth && (fu == ir.FUNone || o.fuUsed[b][fu] < s.fuLim[fu]) {
			o.fuSlots[b]++
			if fu != ir.FUNone {
				o.fuUsed[b][fu]++
			}
			return c
		}
		s.stats.StallFU++
	}
}

// oooFetch returns the fetch cycle for the next instruction, honouring
// fetch bandwidth, the I-cache and the reorder-buffer bound.
func (s *Simulator) oooFetch(pc int64) int64 {
	o := s.ooo
	// ROB bound: the slot we are about to reuse must have retired.
	if oldest := o.retireAt[o.robIdx]; oldest > o.fetchHead {
		o.fetchHead = oldest
		o.fetched = 0
	}
	if !s.ifetch(pc) {
		s.stats.ICacheMisses++
		s.stats.StallICache += int64(s.cfg.MissPenalty)
		o.fetchHead += int64(s.cfg.MissPenalty)
		o.fetched = 0
	}
	if o.fetched >= s.cfg.IssueWidth {
		o.fetchHead++
		o.fetched = 0
	}
	o.fetched++
	return o.fetchHead
}

// oooRetire records the instruction's completion in fetch order.
func (s *Simulator) oooRetire(done int64) {
	o := s.ooo
	if done < o.lastRetire {
		done = o.lastRetire
	}
	o.lastRetire = done
	o.retireAt[o.robIdx] = done
	o.robIdx = (o.robIdx + 1) % len(o.retireAt)
	if done > s.stats.Cycles {
		s.stats.Cycles = done
	}
}

// observeOOO is the out-of-order counterpart of observe.
func (s *Simulator) observeOOO(ev *emu.Event) {
	cfg := &s.cfg
	in := ev.Instr
	s.stats.Instrs++
	o := s.ooo

	if s.objVer != nil && in.Op == ir.St && in.Mem != ir.NoMem {
		s.objVer[in.Mem]++
	}

	fetch := s.oooFetch(ev.PC)

	if in.Op == ir.Reuse {
		s.observeReuseOOO(ev, fetch)
		return
	}

	// Operand readiness (dispatch waits for sources, not program order).
	ready := fetch + 1
	switch in.Op {
	case ir.Call:
		for _, a := range in.Args {
			if r := s.cur.ready[a]; r > ready {
				ready = r
			}
		}
	default:
		if r := s.cur.ready[in.Src1]; r > ready {
			ready = r
		}
		if r := s.cur.ready[in.Src2]; r > ready {
			ready = r
		}
	}

	issue := s.issueAtOOO(ready, in.Op.FU())
	lat := int64(in.Op.Latency())
	done := issue + lat

	switch in.Op {
	case ir.Ld:
		s.stats.DCacheAccess++
		if !s.dcache.access(ev.Addr * 8) {
			s.stats.DCacheMisses++
			s.stats.StallDCache += int64(cfg.MissPenalty)
			done += int64(cfg.MissPenalty)
		}
		s.setReady(in.Dest, done)
	case ir.St:
		s.stats.DCacheAccess++
		if !s.dcache.access(ev.Addr * 8) {
			s.stats.DCacheMisses++
		}
	case ir.Jmp:
		// Direct jumps redirect at decode; a one-cycle bubble.
		o.fetchHead = fetch + 1 + int64(cfg.TakenBubble)
		o.fetched = 0
	case ir.Beq, ir.Bne, ir.Blt, ir.Bge, ir.Ble, ir.Bgt:
		s.stats.CondBranches++
		predTaken, predTarget := s.btb.predict(ev.PC)
		correct := predTaken == ev.Taken && (!ev.Taken || predTarget == ev.TargetPC)
		s.btb.update(ev.PC, ev.Taken, ev.TargetPC)
		if !correct {
			s.stats.Mispredicts++
			s.stats.StallBranch += int64(cfg.MispredictPenalty)
			// Fetch resumes only after the branch resolves.
			o.fetchHead = done + int64(cfg.MispredictPenalty)
			o.fetched = 0
		}
	case ir.Call:
		o.fetchHead = fetch + 1 + int64(cfg.TakenBubble)
		o.fetched = 0
		fid, pc := s.flatPC(ev)
		nf := s.push(s.tab.ext[s.tab.funcs[fid][pc].aux].nregs, in.Dest)
		for i := range in.Args {
			nf.ready[i+1] = issue + 1
			nf.frameMax = issue + 1
		}
	case ir.Ret:
		o.fetchHead = fetch + 1 + int64(cfg.TakenBubble)
		o.fetched = 0
		retReady := issue + 1
		if r := s.cur.ready[in.Src1]; r > retReady {
			retReady = r
		}
		s.popTo(retReady)
	case ir.Inval:
	default:
		if d := in.Def(); d != ir.NoReg {
			s.setReady(d, done)
		}
	}
	s.oooRetire(done)
}

// observeReuseOOO models the reuse pipeline tasks on the dynamically
// scheduled machine.
func (s *Simulator) observeReuseOOO(ev *emu.Event, fetch int64) {
	cfg := &s.cfg
	o := s.ooo
	want := fetch + 1
	if rg := s.prog.Region(ev.Instr.Region); rg != nil {
		for _, r := range rg.Inputs {
			if rd := s.cur.ready[r]; rd > want {
				want = rd
			}
		}
	}
	issue := s.issueAtOOO(want, ir.FUBranch)
	validate := int64(cfg.ReuseValidateCycles)
	if cfg.SpeculativeValidation {
		validate = 0
	}
	access := issue + int64(cfg.ReuseAccessCycles) + validate

	if ev.ReuseHit {
		s.stats.ReuseHits++
		s.stats.ReuseInstrs += int64(ev.ReusedInstrs)
		commitCycles := int64(0)
		if ev.ReuseOut > 0 {
			commitCycles = int64((ev.ReuseOut + cfg.ReuseCommitWidth - 1) / cfg.ReuseCommitWidth)
		}
		done := access + commitCycles
		s.stats.ReuseCycles += done - issue
		if rg := s.prog.Region(ev.Instr.Region); rg != nil {
			for _, out := range rg.Outputs {
				s.setReady(out, done)
			}
		}
		o.fetchHead = fetch + 1 + int64(cfg.TakenBubble)
		o.fetched = 0
		s.oooRetire(done)
	} else {
		s.stats.ReuseMisses++
		s.stats.MemoizedRuns++
		penalty := int64(cfg.ReuseFailPenalty)
		if cfg.SpeculativeValidation {
			penalty++
		}
		s.stats.StallReuse += penalty
		o.fetchHead = access + penalty
		o.fetched = 0
		s.oooRetire(access)
	}
}
