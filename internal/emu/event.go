package emu

import "ccr/internal/ir"

// Event describes one dynamic instruction as it executes. A single Event
// value is reused across the run; consumers must copy anything they keep.
// Every emit site assigns each field in place, so a field added here must
// be assigned at all of them (TestEventFieldsOverwritten).
type Event struct {
	Func  *ir.Func
	Block ir.BlockID
	Index int
	Instr *ir.Instr

	// PC is the instruction's byte address (for I-cache and BTB models).
	PC int64

	// Regs is a read-only view of the executing frame's register file
	// (index by ir.Reg). Consumers must not modify or retain it.
	Regs []int64

	// Val1 and Val2 are the resolved source operand values (Val2 is the
	// immediate when Src2 is NoReg).
	Val1, Val2 int64
	// Result is the value written to the destination register, if any.
	Result int64

	// Addr is the effective word address for Ld and St.
	Addr int64

	// Taken reports whether a branch redirected control flow; TargetPC is
	// the byte address control transfers to (the fall-through address for
	// untaken branches).
	Taken    bool
	TargetPC int64

	// Reuse-instruction facts.
	ReuseHit bool
	// ReuseOut is the matched instance's live-out count on a hit (it
	// bounds the commit phase of §3.3).
	ReuseOut int
	// ReusedInstrs is the dynamic instruction count eliminated by a hit.
	ReusedInstrs int

	// InvalCount is the instance fan-out of an executed Inval instruction
	// (how many CRB instances it killed); zero for every other opcode.
	InvalCount int
}

// Tracer receives every dynamic instruction. It is a plain function for
// call overhead reasons; nil disables tracing.
type Tracer func(*Event)

// Run describes one executed straight-line segment of a function: the
// instructions at flat PCs [Start, End] of function Fn ran in order, with
// only End able to transfer control. End is the run's control transfer,
// or — when a fault or the instruction limit cut the run — the last
// instruction that executed. Everything static about those instructions
// is in the decoded program; Run carries only the dynamic facts. A single
// Run value is reused across the execution; consumers must copy anything
// they keep.
type Run struct {
	Fn         ir.FuncID
	Start, End int32

	// Addrs are the effective word addresses of the run's Ld and St
	// instructions, in execution order.
	Addrs []int64

	// Taken is End's branch outcome (Event.Taken). It is explicit because
	// a branch whose target is End+1 is taken yet falls through.
	Taken bool

	// ReuseHit, ReuseOut and ReusedInstrs are the Event reuse facts of a
	// Reuse at End; they are meaningless for any other End.
	ReuseHit     bool
	ReuseOut     int
	ReusedInstrs int
}

// RunHook receives every executed run (Machine.OnRun); nil disables it.
type RunHook func(*Run)

// Tee fans one event stream out to several tracers, invoked in order. Nil
// tracers are skipped; with zero or one live tracer no wrapper is built.
func Tee(tracers ...Tracer) Tracer {
	live := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(ev *Event) {
		for _, t := range live {
			t(ev)
		}
	}
}

// RegionStats aggregates per-region dynamic reuse behaviour for the
// Figure 9(b)/10 analyses.
type RegionStats struct {
	Hits         int64 // reuse-instruction hits
	Misses       int64 // reuse-instruction misses
	ReusedInstrs int64 // dynamic instructions eliminated
	Records      int64 // instances committed
	Aborts       int64 // memoization attempts abandoned
}

// Stats aggregates whole-run dynamic counts.
type Stats struct {
	// DynInstrs counts instructions actually executed (reused region
	// bodies are not executed and so not counted here).
	DynInstrs int64
	// ByOp breaks DynInstrs down by opcode.
	ByOp [64]int64
	// Branches and TakenBranches count executed control transfers
	// (conditional branches only).
	Branches, TakenBranches int64

	// ReuseHits and ReuseMisses count reuse-instruction outcomes;
	// ReusedInstrs is the total dynamic instructions eliminated.
	ReuseHits, ReuseMisses int64
	ReusedInstrs           int64
	// DTMHits counts trace-memoization replays (each charges one dynamic
	// instruction); DTMReusedInstrs is the dynamic instructions those
	// replays eliminated. Zero unless a Machine.DTM is attached.
	DTMHits         int64
	DTMReusedInstrs int64
	// MemoAborts counts abandoned memoization attempts (region exits).
	MemoAborts int64
	// Invalidations counts executed invalidate instructions.
	Invalidations int64

	// Regions holds per-region counters, indexed by RegionID.
	Regions map[ir.RegionID]*RegionStats
}

func (s *Stats) region(id ir.RegionID) *RegionStats {
	if s.Regions == nil {
		s.Regions = map[ir.RegionID]*RegionStats{}
	}
	rs := s.Regions[id]
	if rs == nil {
		rs = &RegionStats{}
		s.Regions[id] = rs
	}
	return rs
}
