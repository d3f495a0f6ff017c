// Package crb models the Computation Reuse Buffer of the CCR architecture
// (paper Figure 5): a cache-like structure of computation entries, indexed
// by the compiler-assigned region identifier, where each entry holds several
// computation instances. A computation instance records the input register
// values a region execution consumed, the output register values it
// produced, and whether it depended on (still-valid) memory state.
package crb

import (
	"fmt"

	"ccr/internal/ir"
	"ccr/internal/telemetry"
)

// RegVal is one register entry of a computation-instance bank: the register
// index and the value it must hold (input bank) or will receive (output
// bank).
type RegVal struct {
	Reg ir.Reg
	Val int64
}

// Instance is one computation instance (Figure 5, "CI"): the reusable
// record of a single region execution along one path.
type Instance struct {
	Valid bool
	// UsesMem is the memory-valid field's "accesses memory" half: the
	// recorded path executed at least one load.
	UsesMem bool
	// MemOK is the validity half: false once an invalidation for any of
	// the region's objects arrives, making the instance unreusable.
	MemOK bool
	// fullSig marks sig valid (declared beside the flags to keep the
	// instance small).
	fullSig bool
	// Inputs and Outputs are the register banks. In a CRB slot they are
	// storage the slot owns: Commit copies the committed banks into them,
	// growing them only when they do not fit, so a slot keeps its storage
	// across evictions and entry reinstalls.
	Inputs  []RegVal
	Outputs []RegVal
	// ReplacedInstrs is the dynamic instruction count of the recorded
	// execution — the number of instructions a reuse of this instance
	// eliminates (used for reporting, not by the hardware).
	ReplacedInstrs int

	// sig is a hash of the instance's input values taken in the region's
	// static input-list order; it is valid only when fullSig is set,
	// meaning the input bank covers the complete static list so a
	// signature mismatch proves the full comparison would fail. Both are
	// computed by Commit — external constructors leave them unset and the
	// instance simply takes the slow comparison path.
	sig uint64
}

// Reusable reports whether the instance can satisfy a lookup whose current
// register values are in regs (indexed by ir.Reg; it must cover every
// register the instance's input bank names).
func (ci *Instance) Reusable(regs []int64) bool {
	if !ci.Valid || (ci.UsesMem && !ci.MemOK) {
		return false
	}
	return ci.inputsMatch(regs)
}

// inputsMatch reports whether every input-bank register holds its recorded
// value in regs.
func (ci *Instance) inputsMatch(regs []int64) bool {
	for _, in := range ci.Inputs {
		if regs[in.Reg] != in.Val {
			return false
		}
	}
	return true
}

// FNV-1a constants for the input-value signature.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// entry is one computation entry: a tagged slot holding the instances
// recorded for a single region. Its instance and LRU banks grow a slot at
// a time, up to Instances, as Commit first needs each slot.
type entry struct {
	tag     ir.RegionID
	valid   bool
	memCap  bool // entry hardware supports memory-dependent instances
	cis     []Instance
	lastUse []uint64 // LRU timestamps per instance
}

// Config selects the CRB geometry. The paper evaluates direct-mapped
// buffers of 32/64/128 entries with 4/8/16 instances; Assoc > 1 and
// NoMemEntriesFrac > 0 are the design-enhancement ablations of §3.1/§6.
type Config struct {
	Entries   int // number of computation entries (power of two expected)
	Instances int // computation instances per entry
	// Assoc is the set associativity of the entry array; 1 (the paper's
	// configuration) means region IDs map to entries direct-mapped.
	Assoc int
	// NoMemEntriesFrac is the fraction of entries *without* memory-valid
	// tracking hardware (the nonuniform-capacity design of §6's future
	// work); memory-dependent instances mapping to such an entry cannot
	// be recorded. 0 — the zero value — reproduces the paper's uniform
	// CRB.
	NoMemEntriesFrac float64
}

// DefaultConfig is the paper's most cost-effective point: a 128-entry
// direct-mapped CRB with 8 computation instances per entry (§5.2).
func DefaultConfig() Config {
	return Config{Entries: 128, Instances: 8, Assoc: 1}
}

// Key returns a canonical string identifying the configuration, for use
// wherever a Config keys a cache or map. Unlike fmt's struct formatting it
// names every field explicitly, so reordering or adding Config fields can
// never silently alias two distinct configurations under one key.
func (c Config) Key() string {
	return fmt.Sprintf("e%d.i%d.a%d.nm%g", c.Entries, c.Instances, c.Assoc, c.NoMemEntriesFrac)
}

func (c Config) normalized() Config {
	if c.Entries <= 0 {
		c.Entries = 128
	}
	if c.Instances <= 0 {
		c.Instances = 8
	}
	if c.Assoc <= 0 {
		c.Assoc = 1
	}
	if c.Assoc > c.Entries {
		c.Assoc = c.Entries
	}
	if c.NoMemEntriesFrac < 0 {
		c.NoMemEntriesFrac = 0
	}
	if c.NoMemEntriesFrac > 1 {
		c.NoMemEntriesFrac = 1
	}
	return c
}

// Stats counts CRB events.
type Stats struct {
	Lookups     int64 // reuse-instruction accesses
	Hits        int64 // lookups satisfied by a valid instance
	TagMisses   int64 // entry not resident (or not memory-capable)
	InputMisses int64 // entry resident but no instance matched
	Records     int64 // instances committed
	RecordFails int64 // commits rejected (non-capable entry)
	Evictions   int64 // entry replacements (tag conflicts)
	Invalidates int64 // instances discarded by invalidation
}

// CRB is the Computation Reuse Buffer.
//
// Commit copies the committed instance's banks into storage the buffer
// owns and never retains the caller's slices, so callers may pass scratch
// they reuse. The instance Lookup returns is valid until the next Commit.
type CRB struct {
	cfg  Config
	sets int
	// entries holds the first len(entries)/Assoc sets of the sets ×
	// Assoc array: the sets the program's region IDs can index. A region
	// ID outside the program's table that maps past them grows the array
	// to full size (setOf).
	entries []entry
	clock   uint64
	stats   Stats

	// memRegions maps an object to the regions whose instances an
	// invalidation of that object must discard. It is the hardware image
	// of the compiler's region registration table.
	memRegions map[ir.MemID][]ir.RegionID

	// regionInputs[r] is region r's static input-register list, the basis
	// of the signature fast path: Lookup hashes the current values of
	// these registers once and skips any instance whose full-bank
	// signature differs. Empty (no program table) disables the filter.
	regionInputs [][]ir.Reg

	// sink, when non-nil, receives the cause-attributed telemetry stream.
	// Every instrumented path is guarded by a nil check so the zero-sink
	// configuration stays allocation-free and byte-identical (DESIGN.md §9).
	sink telemetry.Sink
	// everResident marks regions that have held a computation entry at
	// some point, distinguishing cold misses from conflict misses. Only
	// maintained while a sink is attached.
	everResident map[ir.RegionID]bool
}

// New builds a CRB for the given configuration and program region table.
// Region IDs index sets modulo the set count, so the program's
// len(prog.Regions) IDs reach at most that many sets, and the entry array
// holds only those (all of them without a program).
func New(cfg Config, prog *ir.Program) *CRB {
	cfg = cfg.normalized()
	c := &CRB{
		cfg:        cfg,
		sets:       cfg.Entries / cfg.Assoc,
		memRegions: map[ir.MemID][]ir.RegionID{},
	}
	if c.sets == 0 {
		c.sets = 1
	}
	reach := c.sets
	if prog != nil {
		reach = min(reach, len(prog.Regions))
	}
	c.entries = make([]entry, reach*cfg.Assoc)
	c.setMemCap(0)
	if prog != nil {
		c.regionInputs = make([][]ir.Reg, len(prog.Regions))
		for _, r := range prog.Regions {
			c.regionInputs[r.ID] = r.Inputs
			for _, m := range r.MemObjects {
				c.memRegions[m] = append(c.memRegions[m], r.ID)
			}
		}
	}
	return c
}

// Config returns the normalized configuration.
func (c *CRB) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *CRB) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching buffer contents,
// so multi-phase runs (e.g. training then reference on one warm buffer)
// can report each phase separately.
func (c *CRB) ResetStats() { c.stats = Stats{} }

// SetSink attaches (or, with nil, detaches) the telemetry sink receiving
// the cause-attributed event stream. Attach before the first operation:
// cold/conflict miss attribution is derived from the residence history
// observed while a sink is present.
func (c *CRB) SetSink(s telemetry.Sink) {
	c.sink = s
	if s != nil && c.everResident == nil {
		c.everResident = map[ir.RegionID]bool{}
	}
}

// setMemCap marks which of entries[from:] have memory-valid hardware.
// Memory-capable entries are spread evenly (Bresenham-style) over the full
// Entries, so a fraction of every set has the capability; an entry's
// capability depends only on its index, however much of the array exists.
func (c *CRB) setMemCap(from int) {
	n := c.cfg.Entries
	capCount := int((1-c.cfg.NoMemEntriesFrac)*float64(n) + 0.5)
	for i := from; i < len(c.entries); i++ {
		c.entries[i].memCap = (i+1)*capCount/n != i*capCount/n
	}
}

// setOf returns the entry slice forming the set a region maps to. A region
// ID outside the program's table may map past the sets New allocated; the
// array then grows to full size, so it answers as the full array would.
func (c *CRB) setOf(region ir.RegionID) []entry {
	lo := int(region) % c.sets * c.cfg.Assoc
	if lo >= len(c.entries) {
		n := len(c.entries)
		c.entries = append(c.entries, make([]entry, c.cfg.Entries-n)...)
		c.setMemCap(n)
	}
	return c.entries[lo : lo+c.cfg.Assoc]
}

// findEntry returns the resident entry for region, or nil.
func (c *CRB) findEntry(region ir.RegionID) *entry {
	set := c.setOf(region)
	for i := range set {
		if set[i].valid && set[i].tag == region {
			return &set[i]
		}
	}
	return nil
}

// sigOfRegs hashes the current values of the given registers in order.
// ok is false when regs does not cover every named register (arbitrary
// register files in tests), in which case the filter is skipped.
func sigOfRegs(ins []ir.Reg, regs []int64) (sig uint64, ok bool) {
	h := fnvOffset
	for _, r := range ins {
		if int(r) >= len(regs) {
			return 0, false
		}
		h = (h ^ uint64(regs[r])) * fnvPrime
	}
	return h, true
}

// sigOfInstance hashes an instance's recorded input values in the
// region's static input-list order. ok is false when the instance's input
// bank does not cover the full static list (partial recordings, unknown
// regions), in which case the instance cannot carry a signature and takes
// the slow comparison path on every lookup.
func (c *CRB) sigOfInstance(region ir.RegionID, inst *Instance) (sig uint64, ok bool) {
	if region < 0 || int(region) >= len(c.regionInputs) {
		return 0, false
	}
	ins := c.regionInputs[region]
	if len(ins) == 0 || len(inst.Inputs) != len(ins) {
		return 0, false
	}
	h := fnvOffset
	for _, r := range ins {
		found := false
		for _, in := range inst.Inputs {
			if in.Reg == r {
				h = (h ^ uint64(in.Val)) * fnvPrime
				found = true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return h, true
}

// Lookup performs the reuse-instruction access: it searches the region's
// computation entry for an instance whose inputs match the current
// register values in regs (indexed by ir.Reg). On a hit it returns the
// matching instance and refreshes its LRU state.
//
// The scan is a single pass: each instance is first screened by the
// input-value signature (one uint64 compare; a mismatch proves the bank
// walk would fail), and instances blocked only by a cleared memory-valid
// bit are detected in the same pass so the MissMemInvalid attribution
// needs no second walk.
func (c *CRB) Lookup(region ir.RegionID, regs []int64) (*Instance, bool) {
	c.clock++
	c.stats.Lookups++
	e := c.findEntry(region)
	if e == nil {
		c.stats.TagMisses++
		if c.sink != nil {
			cause := telemetry.MissCold
			if c.everResident[region] {
				cause = telemetry.MissConflict
			}
			c.sink.Lookup(region, cause)
		}
		return nil, false
	}
	var sig uint64
	sigOK := false
	if int(region) < len(c.regionInputs) {
		if ins := c.regionInputs[region]; len(ins) > 0 {
			sig, sigOK = sigOfRegs(ins, regs)
		}
	}
	memBlocked := false
	for i := range e.cis {
		ci := &e.cis[i]
		if !ci.Valid {
			continue
		}
		if sigOK && ci.fullSig && ci.sig != sig {
			// Certain input mismatch: neither a hit nor a mem-blocked
			// would-be match.
			continue
		}
		if ci.UsesMem && !ci.MemOK {
			// Unreusable regardless of inputs; under a sink, check
			// whether the inputs would have matched so the miss can be
			// attributed to invalidation rather than input divergence.
			if c.sink != nil && !memBlocked && ci.inputsMatch(regs) {
				memBlocked = true
			}
			continue
		}
		if ci.inputsMatch(regs) {
			e.lastUse[i] = c.clock
			c.stats.Hits++
			if c.sink != nil {
				c.sink.Lookup(region, telemetry.Hit)
			}
			return ci, true
		}
	}
	c.stats.InputMisses++
	if c.sink != nil {
		cause := telemetry.MissInput
		if memBlocked {
			cause = telemetry.MissMemInvalid
		}
		c.sink.Lookup(region, cause)
	}
	return nil, false
}

// Commit installs a freshly recorded instance for region, allocating or
// replacing the computation entry as needed and evicting the LRU instance.
// It reports whether the instance was stored (false when the region is
// memory-dependent but maps to an entry without memory-valid hardware).
// inst's banks are copied into the slot's own storage; Commit never
// retains them.
func (c *CRB) Commit(region ir.RegionID, inst Instance) bool {
	c.clock++
	e := c.findEntry(region)
	if e == nil {
		e = c.victim(region)
		if inst.UsesMem && !e.memCap {
			c.stats.RecordFails++
			if c.sink != nil {
				c.sink.Commit(region, false)
			}
			return false
		}
		if e.valid {
			c.stats.Evictions++
			if c.sink != nil {
				c.sink.Evict(e.tag, telemetry.EvictCapacity, validInstances(e))
			}
		}
		e.tag = region
		e.valid = true
		for i := range e.cis {
			e.cis[i].clear()
			e.lastUse[i] = 0
		}
		if c.sink != nil {
			c.everResident[region] = true
		}
	} else if inst.UsesMem && !e.memCap {
		c.stats.RecordFails++
		if c.sink != nil {
			c.sink.Commit(region, false)
		}
		return false
	}
	// Choose an invalid instance slot if one exists, else the LRU slot.
	slot := -1
	for i := range e.cis {
		if !e.cis[i].Valid {
			slot = i
			break
		}
	}
	if slot == -1 && len(e.cis) < c.cfg.Instances {
		// The slots past len(e.cis) are all invalid, so the first of
		// them is the one to take. Slots are allocated as an entry first
		// needs them, so a run pays only for the instances it records.
		slot = len(e.cis)
		e.cis = append(e.cis, Instance{})
		e.lastUse = append(e.lastUse, 0)
	}
	if slot == -1 {
		slot = 0
		for i := 1; i < len(e.cis); i++ {
			if e.lastUse[i] < e.lastUse[slot] {
				slot = i
			}
		}
	}
	if c.sink != nil {
		if e.cis[slot].Valid {
			c.sink.Evict(region, telemetry.EvictSlotLRU, 1)
		}
		c.sink.Commit(region, true)
	}
	ci := &e.cis[slot]
	ins, outs := ci.Inputs, ci.Outputs
	*ci = inst
	ci.Inputs = append(ins[:0], inst.Inputs...)
	ci.Outputs = append(outs[:0], inst.Outputs...)
	ci.Valid = true
	ci.MemOK = true
	ci.sig, ci.fullSig = c.sigOfInstance(region, ci)
	e.lastUse[slot] = c.clock
	c.stats.Records++
	return true
}

// clear empties a slot, keeping the bank storage it owns.
func (ci *Instance) clear() { *ci = Instance{Inputs: ci.Inputs[:0], Outputs: ci.Outputs[:0]} }

// validInstances counts the valid instances of e (telemetry attribution
// for entry-level evictions).
func validInstances(e *entry) int {
	n := 0
	for i := range e.cis {
		if e.cis[i].Valid {
			n++
		}
	}
	return n
}

// victim selects the entry to replace for a region not resident: an invalid
// way if available, else the way whose most recent use is oldest.
func (c *CRB) victim(region ir.RegionID) *entry {
	set := c.setOf(region)
	best := &set[0]
	bestUse := lastTouch(best)
	for i := range set {
		e := &set[i]
		if !e.valid {
			return e
		}
		if u := lastTouch(e); u < bestUse {
			best, bestUse = e, u
		}
	}
	return best
}

func lastTouch(e *entry) uint64 {
	var m uint64
	for _, u := range e.lastUse {
		if u > m {
			m = u
		}
	}
	return m
}

// Invalidate executes the computation-invalidate instruction for object m:
// every resident instance of a region registered against m that accessed
// memory is discarded. Returns the number of instances invalidated.
func (c *CRB) Invalidate(m ir.MemID) int {
	n := 0
	for _, region := range c.memRegions[m] {
		e := c.findEntry(region)
		if e == nil {
			continue
		}
		k := 0
		for i := range e.cis {
			ci := &e.cis[i]
			if ci.Valid && ci.UsesMem && ci.MemOK {
				ci.MemOK = false
				k++
			}
		}
		n += k
		if c.sink != nil && k > 0 {
			c.sink.Evict(region, telemetry.EvictInvalidation, k)
		}
	}
	c.stats.Invalidates += int64(n)
	if c.sink != nil {
		c.sink.Invalidate(m, n)
	}
	return n
}

// InvalidateAll discards every resident instance (used by tests and by
// context-switch modelling).
func (c *CRB) InvalidateAll() {
	for i := range c.entries {
		e := &c.entries[i]
		e.valid = false
		for j := range e.cis {
			e.cis[j].clear()
			e.lastUse[j] = 0
		}
	}
}

// ResidentInstances returns the number of valid instances currently stored,
// for occupancy reporting.
func (c *CRB) ResidentInstances() int {
	n := 0
	for i := range c.entries {
		if !c.entries[i].valid {
			continue
		}
		for j := range c.entries[i].cis {
			if c.entries[i].cis[j].Valid {
				n++
			}
		}
	}
	return n
}
