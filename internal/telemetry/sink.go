// Package telemetry is the opt-in metrics layer of the CCR stack:
// cause-attributed Computation Reuse Buffer metrics (which region hit, why
// an instance died, where invalidations fan out) and the matching per-head
// counters of the DTM trace buffer. The time-ordered view of the same
// reuse events is an obsv span log (core.Telemetry.Spans).
//
// The layer is wired into the hardware model through the Sink interface:
// crb.CRB calls a Sink, when one is attached, at every architectural CRB
// operation. With no sink attached (the default), the instrumented paths
// are never taken — the zero-sink run is allocation-free and byte-identical
// to an uninstrumented one, an invariant DESIGN.md §9 pins and the
// transparency tests enforce.
package telemetry

import "ccr/internal/ir"

// LookupOutcome classifies one CRB lookup: a hit, or one of the four miss
// causes the paper's rationale distinguishes.
type LookupOutcome uint8

const (
	// Hit: a valid instance matched the current inputs.
	Hit LookupOutcome = iota
	// MissCold: the region has never had a computation entry allocated —
	// the first-execution miss every region pays.
	MissCold
	// MissConflict: the region had an entry once, but a tag conflict
	// evicted it — the capacity/mapping pressure miss.
	MissConflict
	// MissInput: the entry is resident but no instance matched the current
	// input register values.
	MissInput
	// MissMemInvalid: an instance matched the current inputs but was
	// unreusable only because an invalidation cleared its memory-valid bit.
	MissMemInvalid

	numOutcomes
)

// String names the outcome for reports.
func (o LookupOutcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissCold:
		return "miss-cold"
	case MissConflict:
		return "miss-conflict"
	case MissInput:
		return "miss-input"
	case MissMemInvalid:
		return "miss-mem-invalid"
	}
	return "unknown"
}

// EvictCause classifies why recorded state left the CRB.
type EvictCause uint8

const (
	// EvictCapacity: a whole computation entry was replaced by a tag
	// conflict (the LRU victim of crb.Stats.Evictions).
	EvictCapacity EvictCause = iota
	// EvictSlotLRU: one instance slot inside a full entry was overwritten
	// by a fresh recording of the same region.
	EvictSlotLRU
	// EvictInvalidation: an instance was discarded because a
	// computation-invalidate instruction named one of its objects.
	EvictInvalidation

	numEvictCauses
)

// String names the cause for reports.
func (c EvictCause) String() string {
	switch c {
	case EvictCapacity:
		return "capacity"
	case EvictSlotLRU:
		return "slot-lru"
	case EvictInvalidation:
		return "invalidation"
	}
	return "unknown"
}

// Sink receives the CRB's architectural event stream. Implementations must
// be cheap: every method is called from the simulation hot path, once per
// CRB operation. The CRB guards every call behind a nil check, so the
// zero-sink configuration pays nothing; attach the sink before the first
// operation — cold/conflict attribution needs the full residence history.
type Sink interface {
	// Lookup reports one reuse-instruction access and its outcome.
	Lookup(region ir.RegionID, outcome LookupOutcome)
	// Commit reports one instance recording; stored is false when the
	// region was memory-dependent but mapped to a non-capable entry.
	Commit(region ir.RegionID, stored bool)
	// Evict reports recorded state leaving the buffer: instances valid
	// instances of region discarded for the given cause. Entry
	// replacements attribute the eviction to the *victim* region.
	Evict(region ir.RegionID, cause EvictCause, instances int)
	// Invalidate reports one executed computation-invalidate of object
	// mem, with the number of instances it killed (its fan-out).
	Invalidate(mem ir.MemID, fanout int)
}

// TraceSink receives the trace buffer's architectural event stream — the
// DTM analogue of Sink, with heads (packed function+PC keys, see
// reuse.EncodeHead) in place of region IDs. The same contract applies:
// methods are hot-path cheap, every call is nil-guarded by the buffer, and
// the sink must be attached before the first operation for cold/conflict
// attribution to be complete.
type TraceSink interface {
	// TraceLookup reports one landing at an eligible trace head and its
	// outcome, classified with the same LookupOutcome vocabulary as CRB
	// lookups.
	TraceLookup(head uint64, outcome LookupOutcome)
	// TraceCommit reports one trace recording.
	TraceCommit(head uint64, stored bool)
	// TraceEvict reports recorded traces leaving the buffer.
	TraceEvict(head uint64, cause EvictCause, instances int)
	// TraceStore reports one watched store that killed traces, with its
	// fan-out. Stores with zero fan-out — the overwhelmingly common case
	// — are not reported; the flat counters still see them.
	TraceStore(mem ir.MemID, fanout int)
}

// NopSink is a Sink whose methods do nothing. It exists to measure the
// cost of the instrumentation seam itself (an interface call per CRB
// operation) against the nil-sink fast path — see BenchmarkTelemetrySink.
type NopSink struct{}

// Lookup implements Sink.
func (NopSink) Lookup(ir.RegionID, LookupOutcome) {}

// Commit implements Sink.
func (NopSink) Commit(ir.RegionID, bool) {}

// Evict implements Sink.
func (NopSink) Evict(ir.RegionID, EvictCause, int) {}

// Invalidate implements Sink.
func (NopSink) Invalidate(ir.MemID, int) {}
