// Package uarch is the cycle-level timing model of the evaluation machine
// (paper §5.1): an in-order 6-issue processor with four integer ALUs, two
// memory ports, two multi-cycle (FP/multiplier) units and one branch unit;
// HP PA-7100 instruction latencies; split 32 KB direct-mapped instruction
// and data caches with 32-byte lines and a 12-cycle miss penalty; a 4K-entry
// BTB with 2-bit saturating counters and an 8-cycle misprediction penalty.
// Failed computation reuse costs a delay equal to the misprediction penalty.
//
// The simulator is driven by the functional emulator (emulation-driven
// timing simulation), so architectural semantics live in one place. Both
// the in-order model and the out-of-order variant read static instruction
// facts from a per-PC table built once per program, and take only the
// dynamic facts from the emulator: one call per executed straight-line run
// (emu.Run), or one event per instruction for the reuse baselines, which
// need operand values, and for machines already carrying a tracer, which
// may need mid-run cycle stamps (see Simulator.Attach).
package uarch

// Config selects the machine parameters. DefaultConfig reproduces §5.1.
type Config struct {
	IssueWidth  int
	IntALUs     int
	MemPorts    int
	FPUnits     int
	BranchUnits int

	// ICacheBytes/DCacheBytes with LineBytes define the two direct-mapped
	// caches; MissPenalty is charged per miss.
	ICacheBytes int
	DCacheBytes int
	LineBytes   int
	MissPenalty int

	// BTBEntries is the branch-target-buffer size (2-bit counters).
	BTBEntries int
	// MispredictPenalty is the branch misprediction bubble.
	MispredictPenalty int
	// TakenBubble is the fetch-redirect bubble for correctly predicted
	// taken branches and unconditional transfers.
	TakenBubble int

	// ReuseAccessCycles is the CRB access latency; ReuseValidateCycles is
	// the instance-validation latency (§3.3 pipeline tasks).
	ReuseAccessCycles   int
	ReuseValidateCycles int
	// ReuseFailPenalty is charged when a reuse instruction finds no
	// matching instance and execution is redirected to the region body.
	ReuseFailPenalty int
	// ReuseCommitWidth is how many live-out register results the reuse
	// hardware can retire per cycle (the paper notes the update can run
	// at a higher degree of parallelism than the original code).
	ReuseCommitWidth int
	// SpeculativeValidation models the §6 future-work idea of using
	// value-speculation techniques to hide the latency of validating
	// reuse opportunities: on a hit, the live-out values are forwarded
	// at CRB-access time and validation completes off the critical path.
	// A failed speculation (a miss) pays one extra recovery cycle on top
	// of the normal reuse-failure redirect.
	SpeculativeValidation bool

	// InstrReuse enables the dynamic instruction-reuse baseline
	// (Sodani & Sohi, §2.1): a PC-indexed buffer of 1024 entries reuses
	// individual instruction results. Runs on the base program; mutually
	// exclusive with CCR in meaningful comparisons.
	InstrReuse bool
	// BlockReuse enables the block-level reuse baseline (Huang & Lilja,
	// §2.1): up to 128 basic blocks × 8 recorded executions each.
	// Both baselines model only the in-order machine: OutOfOrder
	// ignores them.
	BlockReuse bool

	// OutOfOrder switches the timing model to a dynamically scheduled
	// machine (idealized scheduling window bounded by ROBSize, in-order
	// fetch and retirement, same functional units and caches). §3.3
	// notes the CCR mechanism applies to such machines; this model
	// measures how much reuse benefit survives when the scheduler can
	// already hide latency.
	OutOfOrder bool
	ROBSize    int
}

// DefaultConfig returns the paper's base machine.
func DefaultConfig() Config {
	return Config{
		IssueWidth:  6,
		IntALUs:     4,
		MemPorts:    2,
		FPUnits:     2,
		BranchUnits: 1,

		ICacheBytes: 32 << 10,
		DCacheBytes: 32 << 10,
		LineBytes:   32,
		MissPenalty: 12,

		BTBEntries:        4096,
		MispredictPenalty: 8,
		TakenBubble:       1,

		ReuseAccessCycles:   1,
		ReuseValidateCycles: 1,
		ReuseFailPenalty:    8,
		ReuseCommitWidth:    6,
	}
}

// Stats aggregates timing-simulation counters.
type Stats struct {
	Cycles       int64
	Instrs       int64
	ICacheMisses int64
	DCacheMisses int64
	DCacheAccess int64

	CondBranches int64
	Mispredicts  int64

	ReuseHits   int64
	ReuseMisses int64
	ReuseInstrs int64 // dynamic instructions eliminated by reuse
	ReuseCycles int64 // cycles spent in reuse access/validate/commit
	// Baseline counters.
	InstrReuseHits   int64
	BlockReuseHits   int64
	BlockReuseInstrs int64
	StallFU          int64 // cycles lost waiting for an issue slot or unit
	StallDep         int64 // cycles lost waiting on operand dependences
	StallICache      int64
	StallDCache      int64
	StallBranch      int64 // misprediction + redirect bubbles
	StallReuse       int64 // reuse-failure redirect penalty
	MemoizedRuns     int64
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}
