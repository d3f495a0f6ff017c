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
// The model replays the same per-PC table and run facts as the in-order
// model (replayOOO): each instruction is fetched in order at up to
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

// reset returns o to newOOOState's state, keeping its arrays.
func (o *oooState) reset() {
	clear(o.retireAt)
	clear(o.fuTag)
	clear(o.fuSlots)
	clear(o.fuUsed)
	*o = oooState{retireAt: o.retireAt, fuTag: o.fuTag, fuSlots: o.fuSlots, fuUsed: o.fuUsed}
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
		s.oooRedirect(oldest)
	}
	if !s.ifetch(pc) {
		s.stats.ICacheMisses++
		s.stats.StallICache += int64(s.cfg.MissPenalty)
		s.oooRedirect(o.fetchHead + int64(s.cfg.MissPenalty))
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

// replayOOO times one executed run on the dynamically scheduled machine:
// the counterpart of replay, reading the same table entries and the same
// dynamic facts from r.
func (s *Simulator) replayOOO(r *emu.Run) {
	cfg := &s.cfg
	ents := s.tab.funcs[r.Fn][r.Start : r.End+1]
	s.stats.Instrs += int64(len(ents))
	k := 0 // next Ld/St address
	for i := range ents {
		e := &ents[i]
		fetch := s.oooFetch(e.pc)
		if e.kind == kReuse {
			s.stepReuseOOO(e, fetch, r)
			continue
		}

		// Operand readiness (dispatch waits for sources, not program order).
		ready := s.cur.ready
		want := fetch + 1
		if e.kind == kCall {
			for _, a := range s.tab.ext[e.aux].regs {
				if rd := ready[a]; rd > want {
					want = rd
				}
			}
		} else {
			if rd := ready[e.src1]; rd > want {
				want = rd
			}
			if rd := ready[e.src2]; rd > want {
				want = rd
			}
		}

		issue := s.issueAtOOO(want, e.fu)
		done := issue + int64(e.lat)

		switch e.kind {
		case kLd:
			s.stats.DCacheAccess++
			if !s.dcache.access(r.Addrs[k] * 8) {
				s.stats.DCacheMisses++
				s.stats.StallDCache += int64(cfg.MissPenalty)
				done += int64(cfg.MissPenalty)
			}
			k++
			s.setReady(e.def, done)
		case kSt:
			s.stats.DCacheAccess++
			if !s.dcache.access(r.Addrs[k] * 8) {
				s.stats.DCacheMisses++
			}
			k++
		case kJmp:
			// Direct jumps redirect at decode; a one-cycle bubble.
			s.oooRedirect(fetch + 1 + int64(cfg.TakenBubble))
		case kCBr:
			s.stats.CondBranches++
			taken := r.Taken
			target := e.pc + 4
			if taken {
				target = e.pc + int64(e.aux)
			}
			predTaken, predTarget := s.btb.predict(e.br, e.pc)
			correct := predTaken == taken && (!taken || predTarget == target)
			s.btb.update(e.br, e.pc, taken, target)
			if !correct {
				s.stats.Mispredicts++
				s.stats.StallBranch += int64(cfg.MispredictPenalty)
				// Fetch resumes only after the branch resolves.
				s.oooRedirect(done + int64(cfg.MispredictPenalty))
			}
		case kCall:
			s.oooRedirect(fetch + 1 + int64(cfg.TakenBubble))
			x := &s.tab.ext[e.aux]
			nf := s.push(x.nregs, e.def)
			for i := range x.regs {
				nf.ready[i+1] = issue + 1
				nf.frameMax = issue + 1
			}
		case kRet:
			s.oooRedirect(fetch + 1 + int64(cfg.TakenBubble))
			retReady := issue + 1
			if rd := ready[e.src1]; rd > retReady {
				retReady = rd
			}
			s.popTo(retReady)
		case kInval:
		default:
			s.setReady(e.def, done)
		}
		s.oooRetire(done)
	}
}

// oooRedirect restarts fetch at cycle next.
func (s *Simulator) oooRedirect(next int64) {
	s.ooo.fetchHead = next
	s.ooo.fetched = 0
}

// stepReuseOOO models the reuse pipeline tasks on the dynamically
// scheduled machine: the lookup waits for the region inputs, not program
// order, and the reuse instruction retires when its outcome is known.
func (s *Simulator) stepReuseOOO(e *tentry, fetch int64, r *emu.Run) {
	x := &s.tab.ext[e.aux]
	want := fetch + 1
	for _, reg := range x.regs {
		if rd := s.cur.ready[reg]; rd > want {
			want = rd
		}
	}
	issue := s.issueAtOOO(want, ir.FUBranch)
	done, penalty := s.reuseOutcome(x, issue, r.ReuseHit, r.ReuseOut, r.ReusedInstrs)
	if r.ReuseHit {
		s.oooRedirect(fetch + 1 + int64(s.cfg.TakenBubble))
	} else {
		s.oooRedirect(done + penalty)
	}
	s.oooRetire(done)
}
