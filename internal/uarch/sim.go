package uarch

import (
	"ccr/internal/emu"
	"ccr/internal/ir"
)

// Simulator is the timing model. Attach it to an emu.Machine, run the
// program, then read Stats(). One Simulator models one run.
//
// Both machine models time instructions from the program's static per-PC
// table (table.go), so they need only each run's dynamic facts: Attach
// feeds the model one call per executed run (emu.Run: replay in order,
// replayOOO out of order) and the engine stays on its batch tier. The
// reuse baselines, which read per-instruction values, and machines that
// already carry a tracer, which may read mid-run cycle stamps, consume
// per-instruction events instead (observe), each replayed as a
// one-instruction run, so both feeds apply the same rules. A machine with
// a tracer attached runs on the reference interpreter, the one engine
// that builds events.
type Simulator struct {
	cfg Config
	tab *table

	icache cache
	dcache cache
	btb    btb
	// lastLine is the I-cache line of the previous fetch probe (-1 before
	// any): the cache is direct-mapped and only fetch touches it, so a
	// fetch from the same line hits with no state change (ifetch).
	lastLine int64

	// fuLim is each FU class's unit count (FUNone: the issue width).
	fuLim [ir.FUNone + 1]int

	// head is the earliest cycle the next instruction may issue
	// (the in-order constraint).
	head int64
	// slot bookkeeping for the cycle currently being filled.
	curCycle  int64
	slotsUsed int
	fuUsed    [ir.FUNone + 1]int

	// frames parallels the emulator's call stack: per-frame register
	// readiness, with cur the top. Popped frames keep their ready arrays
	// for the next call at that depth.
	frames []simFrame
	cur    *simFrame

	// Reuse-baseline state (nil / zero unless enabled in Config; the
	// baselines model only the in-order machine).
	irb *instrRB
	brb *blockRB
	// bskip counts the events still to skip after a block-reuse hit.
	bskip  int
	objVer []uint64

	// ooo holds the dynamically scheduled machine's state (nil for the
	// paper's in-order model).
	ooo *oooState

	// On the per-event path, ev is the event being timed (the
	// instruction-reuse baseline reads operand values from it; nil on the
	// run feed), and evRun and evAddr carry its dynamic facts into replay.
	ev     *emu.Event
	evRun  emu.Run
	evAddr [1]int64

	stats Stats
}

type simFrame struct {
	ready []int64
	// frameMax is the latest write-back in the frame, used for the
	// completion time.
	frameMax int64
	// pendingRet is the caller register that receives the callee result.
	pendingRet ir.Reg
}

// NewSimulator builds a timing model of the given machine configuration
// for one run of prog (the region table resolves reuse live-out sets).
func NewSimulator(cfg Config, prog *ir.Program) *Simulator {
	s := &Simulator{
		cfg:      cfg,
		tab:      tableFor(prog),
		lastLine: -1,
		frames:   make([]simFrame, 0, 8),
	}
	s.icache = newCache(cfg.ICacheBytes, cfg.LineBytes, s.tab.textBytes)
	s.btb = newBTB(s.tab.btbFor(cfg.BTBEntries))
	s.fuLim = [...]int{
		ir.FUInt:    cfg.IntALUs,
		ir.FUMem:    cfg.MemPorts,
		ir.FUFloat:  cfg.FPUnits,
		ir.FUBranch: cfg.BranchUnits,
		ir.FUNone:   cfg.IssueWidth,
	}
	s.push(s.tab.maxRegs, ir.NoReg)
	s.evRun.Addrs = s.evAddr[:]
	if cfg.OutOfOrder {
		s.ooo = newOOOState(cfg.ROBSize)
		return s
	}
	if cfg.InstrReuse {
		s.irb = newInstrRB()
	}
	if cfg.BlockReuse {
		s.brb = newBlockRB(prog)
	}
	if cfg.InstrReuse || cfg.BlockReuse {
		s.objVer = make([]uint64, len(prog.Objects))
	}
	return s
}

// Attach installs the simulator on m, choosing its feed; both produce
// identical Stats. Either machine model takes the per-run feed (m.OnRun),
// which keeps the engine on its batch tier. The per-event adapter
// (observe) is used instead, teed ahead of any tracer already on m, when
// the configuration reads per-instruction values (the instruction- and
// block-reuse baselines) and when m already has a tracer — which may read
// CycleCount mid-run, so the model must be current at every event. Either
// way m then carries a tracer, so it runs on the reference interpreter
// (emu.Machine.Run).
func (s *Simulator) Attach(m *emu.Machine) {
	// Every Ld/St address the machine reports is a word index into
	// m.Mem, so the D-cache needs sets only for that image's lines.
	s.dcache = newCache(s.cfg.DCacheBytes, s.cfg.LineBytes, 8*int64(len(m.Mem)))
	switch {
	case s.irb != nil || s.brb != nil || m.Trace != nil:
		m.Trace = emu.Tee(s.observe, m.Trace)
	case s.ooo != nil:
		m.OnRun = s.replayOOO
	default:
		m.OnRun = s.replay
	}
}

// Stats returns the accumulated timing counters; Cycles is the current
// completion time.
func (s *Simulator) Stats() Stats {
	st := s.stats
	if s.ooo != nil {
		if s.ooo.lastRetire > st.Cycles {
			st.Cycles = s.ooo.lastRetire
		}
		return st
	}
	st.Cycles = s.head
	if s.cur.frameMax > st.Cycles {
		st.Cycles = s.cur.frameMax
	}
	return st
}

// CycleCount returns the current completion-time estimate — the same
// value Stats().Cycles reports — for use as a telemetry timestamp clock.
func (s *Simulator) CycleCount() int64 { return s.Stats().Cycles }

// push enters a call frame whose function has nregs registers (NumRegs+1),
// reusing the ready array left at that depth. Every register must read as
// ready at cycle 0 until written, so the part a previous occupant could
// have written is cleared.
func (s *Simulator) push(nregs int, pendingRet ir.Reg) *simFrame {
	n := len(s.frames)
	if n < cap(s.frames) {
		s.frames = s.frames[:n+1]
	} else {
		s.frames = append(s.frames, simFrame{})
	}
	f := &s.frames[n]
	if f.ready == nil {
		f.ready = make([]int64, s.tab.maxRegs)
	} else {
		clear(f.ready[:nregs])
	}
	f.frameMax, f.pendingRet = 0, pendingRet
	s.cur = f
	return f
}

// pop leaves the current frame.
func (s *Simulator) pop() {
	s.frames = s.frames[:len(s.frames)-1]
	s.cur = &s.frames[len(s.frames)-1]
}

func (s *Simulator) setReady(r ir.Reg, cyc int64) {
	if r == ir.NoReg {
		return
	}
	f := s.cur
	f.ready[r] = cyc
	if cyc > f.frameMax {
		f.frameMax = cyc
	}
}

// issueAt finds the first cycle ≥ want with a free issue slot and a free
// unit of class fu, charging FU-stall cycles for the wait.
func (s *Simulator) issueAt(want int64, fu ir.FUClass) int64 {
	if want < s.head {
		want = s.head
	}
	if want > s.curCycle {
		s.curCycle = want
		s.slotsUsed = 0
		s.fuUsed = [ir.FUNone + 1]int{}
	}
	for s.slotsUsed >= s.cfg.IssueWidth || s.fuUsed[fu] >= s.fuLim[fu] {
		s.curCycle++
		s.slotsUsed = 0
		s.fuUsed = [ir.FUNone + 1]int{}
		s.stats.StallFU++
	}
	s.slotsUsed++
	s.fuUsed[fu]++
	return s.curCycle
}

// ifetch probes the I-cache for the instruction at byte address pc and
// reports a hit. A fetch from the line the previous probe touched skips
// the probe: that line is resident and the direct-mapped cache has no
// replacement state to update, so the skip is exact.
func (s *Simulator) ifetch(pc int64) bool {
	line := pc >> s.icache.lineShift
	if line == s.lastLine {
		return true
	}
	s.lastLine = line
	return s.icache.access(pc)
}

// imiss charges an I-cache miss and returns the stalled fetch cycle. A
// fetch is available at s.head on an ifetch hit, else at imiss(): both
// sites spell this out so the hit path stays inline.
func (s *Simulator) imiss() int64 {
	s.stats.ICacheMisses++
	s.stats.StallICache += int64(s.cfg.MissPenalty)
	return s.head + int64(s.cfg.MissPenalty)
}

// replay times one executed run on the in-order machine: the engine's
// run feed, and observe's one-instruction runs. For each instruction it
// applies fetch, operand readiness, issue, and its kind's completion
// rule, reading the run's dynamic facts from r: its Ld/St addresses in
// order, its last instruction's branch outcome (only the last can branch)
// and the reuse facts of a Reuse there.
func (s *Simulator) replay(r *emu.Run) {
	ents := s.tab.funcs[r.Fn][r.Start : r.End+1]
	s.stats.Instrs += int64(len(ents))
	// Few locals: the loop is register-bound, and each one it keeps live
	// costs spills on every instruction.
	k := 0 // next Ld/St address
	for i := range ents {
		e := &ents[i]
		if e.kind == kReuse {
			s.stepReuse(e, r.ReuseHit, r.ReuseOut, r.ReusedInstrs)
			continue
		}
		fetch := s.head
		if !s.ifetch(e.pc) {
			fetch = s.imiss()
		}

		// Instruction-level reuse baseline.
		if s.irb != nil && s.ev != nil && s.observeInstrReuse(s.ev, e, fetch) {
			continue
		}

		// Operand readiness.
		ready := s.cur.ready
		want := fetch
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
		s.stats.StallDep += want - fetch

		issue := s.issueAt(want, e.fu)
		lat := int64(e.lat)

		switch e.kind {
		case kLd:
			s.stats.DCacheAccess++
			if !s.dcache.access(r.Addrs[k] * 8) {
				s.stats.DCacheMisses++
				s.stats.StallDCache += int64(s.cfg.MissPenalty)
				lat += int64(s.cfg.MissPenalty)
			}
			k++
			s.setReady(e.def, issue+lat)
		case kSt:
			// Write-allocate, store-buffered: misses allocate without
			// stalling the pipeline.
			s.stats.DCacheAccess++
			if !s.dcache.access(r.Addrs[k] * 8) {
				s.stats.DCacheMisses++
			}
			k++
		case kJmp:
			s.redirect(issue, int64(s.cfg.TakenBubble))
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
				s.stats.StallBranch += int64(s.cfg.MispredictPenalty)
				s.redirect(issue, int64(s.cfg.MispredictPenalty))
			} else if taken {
				s.stats.StallBranch += int64(s.cfg.TakenBubble)
				s.redirect(issue, int64(s.cfg.TakenBubble))
			}
		case kCall:
			s.redirect(issue, int64(s.cfg.TakenBubble))
			// Push the callee frame: parameters become ready one cycle
			// after the call issues.
			x := &s.tab.ext[e.aux]
			nf := s.push(x.nregs, e.def)
			for i := range x.regs {
				nf.ready[i+1] = issue + 1
				nf.frameMax = issue + 1
			}
		case kRet:
			s.redirect(issue, int64(s.cfg.TakenBubble))
			retReady := issue + 1
			if rd := ready[e.src1]; rd > retReady {
				retReady = rd
			}
			s.popTo(retReady)
		case kInval:
			// One memory-port operation; the CRB invalidation proceeds
			// off the critical path.
		default:
			s.setReady(e.def, issue+lat)
		}

		if s.head < issue {
			s.head = issue
		}
	}
}

// observe is the per-event adapter: the reuse baselines' bookkeeping,
// then the machine model's replay over a one-instruction run.
func (s *Simulator) observe(ev *emu.Event) {
	fid, pc := s.flatPC(ev)
	e := &s.tab.funcs[fid][pc]
	// Object-version tracking for the reuse baselines.
	if s.objVer != nil && e.kind == kSt && ir.MemID(e.aux) != ir.NoMem {
		s.objVer[e.aux]++
	}
	// Block-level reuse baseline: a reused block's instructions cost
	// nothing beyond the lookup-and-commit charged at the block start.
	if s.brb != nil && s.observeBlockReuse(ev) {
		s.stats.Instrs++
		return
	}
	r := &s.evRun
	r.Fn, r.Start, r.End = fid, pc, pc
	s.evAddr[0] = ev.Addr
	r.Taken, r.ReuseHit, r.ReuseOut, r.ReusedInstrs = ev.Taken, ev.ReuseHit, ev.ReuseOut, ev.ReusedInstrs
	if s.ooo != nil {
		s.replayOOO(r)
		return
	}
	s.ev = ev
	s.replay(r)
	s.ev = nil
}

// popTo returns from the current frame, the callee's result ready at
// retReady. The outermost frame is never popped.
func (s *Simulator) popTo(retReady int64) {
	dest := s.cur.pendingRet
	if len(s.frames) <= 1 {
		return
	}
	s.pop()
	if dest != ir.NoReg {
		s.setReady(dest, retReady)
	} else if retReady > s.cur.frameMax {
		s.cur.frameMax = retReady
	}
}

// redirect models a front-end redirect: no instruction issues for the next
// `bubble` cycles after the transfer.
func (s *Simulator) redirect(issue, bubble int64) {
	next := issue + 1 + bubble
	if next > s.head {
		s.head = next
	}
}

// stepReuse models the four reuse pipeline tasks of §3.3 on the in-order
// machine: CRB access, architectural-state read (interlocked against
// in-flight writes), instance validation, and live-out commit on a hit —
// or the misprediction-like redirect on a failed reuse. out is the matched
// instance's live-out count and reused the instructions a hit eliminated.
func (s *Simulator) stepReuse(e *tentry, hit bool, out, reused int) {
	fetch := s.head
	if !s.ifetch(e.pc) {
		fetch = s.imiss()
	}
	// Read-state interlock (§3.3): the reuse instruction waits for the
	// summary set — the registers any resident instance may compare —
	// which the region table bounds by the static input list. In-flight
	// writes to other registers do not stall the lookup.
	x := &s.tab.ext[e.aux]
	want := fetch
	for _, r := range x.regs {
		if rd := s.cur.ready[r]; rd > want {
			want = rd
		}
	}
	s.stats.StallDep += want - fetch
	issue := s.issueAt(want, ir.FUBranch)
	done, penalty := s.reuseOutcome(x, issue, hit, out, reused)
	if hit {
		// Control transfers to the continuation like a taken branch.
		s.redirect(done-1, int64(s.cfg.TakenBubble))
	} else {
		// Failed reuse: the pipeline is cleared and fetch is redirected
		// to the computation code (§3.3), a mispredict-like delay. A
		// speculative validation must first confirm the miss.
		recovery := int64(0)
		if s.cfg.SpeculativeValidation {
			recovery = int64(s.cfg.ReuseValidateCycles)
		}
		s.redirect(done-1+recovery, penalty)
	}
	if s.head < issue {
		s.head = issue
	}
}

// reuseOutcome is the reuse arithmetic both machine models share, for a
// reuse instruction of region x issued at issue: the CRB access and
// validation latency, then on a hit the live-out commit, ReuseCommitWidth
// results per cycle, and on a miss the failure penalty, with their stats.
// done is when the hit's live-outs are ready, or when the miss is known;
// penalty is the miss's redirect delay (0 on a hit).
func (s *Simulator) reuseOutcome(x *textra, issue int64, hit bool, out, reused int) (done, penalty int64) {
	cfg := &s.cfg
	validate := int64(cfg.ReuseValidateCycles)
	if cfg.SpeculativeValidation {
		// Validation proceeds in the shadow of the committed values.
		validate = 0
	}
	done = issue + int64(cfg.ReuseAccessCycles) + validate
	if !hit {
		s.stats.ReuseMisses++
		s.stats.MemoizedRuns++
		// A failed value speculation additionally squashes the
		// forwarded results.
		penalty = int64(cfg.ReuseFailPenalty)
		if cfg.SpeculativeValidation {
			penalty++
		}
		s.stats.StallReuse += penalty
		return done, penalty
	}
	s.stats.ReuseHits++
	s.stats.ReuseInstrs += int64(reused)
	if out > 0 {
		done += int64((out + cfg.ReuseCommitWidth - 1) / cfg.ReuseCommitWidth)
	}
	s.stats.ReuseCycles += done - issue
	for _, r := range x.outs {
		s.setReady(r, done)
	}
	return done, 0
}
