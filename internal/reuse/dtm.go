package reuse

import (
	"fmt"
	"sort"

	"ccr/internal/crb"
	"ccr/internal/ir"
	"ccr/internal/telemetry"
)

// maxTraceBank bounds the input and output register banks of one trace,
// mirroring the CRB's fixed-width instance banks (ir.RegionBankSize) but
// wider: a trace's outputs are *every* register the run writes — the
// transparency contract is exact register-file state, not live-out state —
// so runs need more room than compiler-pruned regions.
const maxTraceBank = 16

// DTMConfig is the trace-buffer geometry, the DTM analogue of crb.Config.
type DTMConfig struct {
	// Entries is the number of trace entries (head-PC slots).
	Entries int `json:"entries"`
	// Instances is the number of trace instances per entry — distinct
	// input contexts recorded for the same head.
	Instances int `json:"instances"`
	// Assoc is the entry associativity: how many distinct heads can map
	// to the same set before tag conflicts evict.
	Assoc int `json:"assoc"`
	// MinRun is the minimum dynamic length (body + ender) a straight-line
	// run must have to be trace-eligible. Short runs cost a lookup per
	// landing and save almost nothing when they hit.
	MinRun int `json:"min_run"`
}

// DefaultDTMConfig is the default trace-buffer geometry: the same total
// instance budget class as the default CRB (crb.DefaultConfig), spent on
// more heads with fewer contexts each — traces are more numerous and less
// input-polymorphic than compiler-picked regions.
func DefaultDTMConfig() DTMConfig {
	return DTMConfig{Entries: 256, Instances: 4, Assoc: 2, MinRun: 3}
}

// Key is the canonical cache identity of the geometry, the DTM analogue of
// crb.Config.Key. The "t" prefix on every field keeps the namespace
// visibly distinct from CRB keys in concatenated cache paths.
func (c DTMConfig) Key() string {
	c = c.normalized()
	return fmt.Sprintf("te%d.ti%d.ta%d.mr%d", c.Entries, c.Instances, c.Assoc, c.MinRun)
}

// normalized clamps degenerate geometries the same way crb.Config does, so
// equal effective configurations share one canonical key.
func (c DTMConfig) normalized() DTMConfig {
	if c.Entries < 1 {
		c.Entries = 1
	}
	if c.Instances < 1 {
		c.Instances = 1
	}
	if c.Assoc < 1 {
		c.Assoc = 1
	}
	if c.Assoc > c.Entries {
		c.Assoc = c.Entries
	}
	if c.MinRun < 1 {
		c.MinRun = 1
	}
	return c
}

// EncodeHead packs a trace head identity — function plus flat predecoded
// PC — into the uint64 tag the buffer is keyed by.
func EncodeHead(fn ir.FuncID, pc int32) uint64 {
	return uint64(uint32(fn))<<32 | uint64(uint32(pc))
}

// DecodeHead is the exact inverse of EncodeHead.
func DecodeHead(key uint64) (ir.FuncID, int32) {
	return ir.FuncID(int32(key >> 32)), int32(key)
}

// Trace is one reusable trace instance as handed to the engine on a hit:
// the final value of every register the run writes, and where control
// lands after the run's ender. The pointer returned by Lookup aliases a
// scratch buffer reused across calls — apply it immediately, never retain.
type Trace struct {
	Outputs []crb.RegVal
	NextPC  int32 // flat predecoded landing PC (never the sentinel slot)
	Len     int32 // dynamic instructions the hit replaces
	UsesMem bool
}

// Stats mirrors crb.Stats field-for-field so the two schemes report
// symmetrically. Lookups counts only landings at trace-eligible heads;
// ineligible landings are filtered by a static plan check before any
// buffer access. RecordFails is always zero today — the trace buffer has
// no non-memory-capable entries — and exists for report symmetry.
type Stats struct {
	Lookups     int64 // landings at eligible heads
	Hits        int64 // lookups satisfied by a resident trace
	TagMisses   int64 // head not resident (cold or conflict-evicted)
	InputMisses int64 // head resident but no input context matched
	Records     int64 // traces committed
	RecordFails int64 // always zero (symmetry with crb.Stats)
	Evictions   int64 // entry replacements (tag conflicts)
	Invalidates int64 // trace instances killed by store watching
	Begins      int64 // recordings armed
	Aborts      int64 // recordings abandoned (bad landing, reset, restart)
}

// HeadStat is the per-head reuse contribution, the DTM analogue of the
// per-region emu.RegionStats — the decanting figure's loop-shape
// decomposition is built from these.
type HeadStat struct {
	Fn     ir.FuncID `json:"fn"`
	PC     int32     `json:"pc"` // flat predecoded head PC
	Hits   int64     `json:"hits"`
	Reused int64     `json:"reused"` // dynamic instructions replaced
}

// headPlan is the static trace-eligibility analysis of one straight-line
// run, computed once per head PC and program (see planSet) and shared by
// every instance recorded there. A run is eligible when it is
// pure-register dataflow plus loads with known provenance: no stores, no
// calls/returns, no CCR instructions, and an ender that is a jump or
// conditional branch (so the landing set is statically known and replay
// can be validated).
type headPlan struct {
	head int32
	end  int32 // flat PC of the ender (RunEnd[head])
	n    int32 // dynamic length, end-head+1

	ins  []ir.Reg   // registers read before written, in first-use order
	outs []ir.Reg   // registers written, in first-def order
	mems []ir.MemID // writable objects loaded (deduped); empty when !usesMem

	usesMem bool

	succTarget int32 // landing when the ender is taken
	succFall   int32 // landing when a conditional ender falls through; -1 for Jmp
}

// planSet is the trace-eligibility analysis of every head of one program
// at one MinRun. It is pure program analysis, so it is built once per
// decoded program and MinRun (planSetFor) and shared read-only by every
// DTM of that program.
type planSet struct {
	// plans[fn][pc] is the plan of the run headed at flat PC pc of
	// function fn, nil when the head is ineligible.
	plans [][]*headPlan
	// memHeads[m] lists, in (function, head PC) order, every head key
	// whose plan loads writable object m; store watching walks it.
	memHeads [][]uint64
	// elig[fn][pc] reports whether plans[fn][pc] exists; it spans the
	// whole code, sentinel slot included (false), and is the table the
	// emulator's batch tier reads to skip ineligible landings
	// (EligibleHeads).
	elig [][]bool
}

type planKey struct{ minRun int }

// planSetFor returns the analysis of dec at minRun, building it on first
// use.
func planSetFor(dec *ir.DecodedProgram, minRun int) *planSet {
	return dec.Ext(planKey{minRun}, func(dec *ir.DecodedProgram) any {
		return buildPlanSet(dec, minRun)
	}).(*planSet)
}

func buildPlanSet(dec *ir.DecodedProgram, minRun int) *planSet {
	ps := &planSet{
		plans:    make([][]*headPlan, len(dec.Funcs)),
		memHeads: make([][]uint64, len(dec.Prog.Objects)),
		elig:     make([][]bool, len(dec.Funcs)),
	}
	for fn, df := range dec.Funcs {
		plans := make([]*headPlan, len(df.Code)-1)
		elig := make([]bool, len(df.Code))
		for head := range plans {
			p := buildPlan(dec.Prog, df, int32(head), minRun)
			if p == nil {
				continue
			}
			plans[head], elig[head] = p, true
			key := EncodeHead(ir.FuncID(fn), int32(head))
			for _, m := range p.mems {
				ps.memHeads[m] = append(ps.memHeads[m], key)
			}
		}
		ps.plans[fn], ps.elig[fn] = plans, elig
	}
	return ps
}

// tinstance is one recorded trace: the input values that key it and the
// output values plus landing PC that replay it.
type tinstance struct {
	valid bool
	memOK bool // false once store watching kills a memory-dependent trace
	sig   uint64
	next  int32
	ins   []int64 // values of plan.ins at the head
	outs  []int64 // values of plan.outs at the landing
}

// tentry is one trace entry: all recorded instances of a single head.
type tentry struct {
	key       uint64
	valid     bool
	plan      *headPlan
	lastTouch uint64
	hits      int64 // per-head accounting for HeadStats
	reused    int64
	// cis and lastUse are nil until the entry's first install
	// (ensureEntry).
	cis     []tinstance
	lastUse []uint64
}

// pendingRec is the one in-flight trace recording. Arming it snapshots the
// head's input values; the next landing either commits (when it is one of
// the plan's two static successors) or aborts.
type pendingRec struct {
	armed bool
	fn    ir.FuncID
	plan  *headPlan
	sig   uint64
	ins   []int64
}

// DTM is the dynamic trace memoization buffer: the runtime-formed analogue
// of the CRB. It keys reusable computation by head PC + input-register
// signature over the straight-line runs the predecoder maps (RunEnd),
// forms traces with no compiler support, and invalidates memory-dependent
// traces by watching stores instead of executing explicit Inval
// instructions.
type DTM struct {
	cfg DTMConfig
	dec *ir.DecodedProgram

	// ways[s] holds set s's Assoc entries, nil until the set's first
	// install.
	ways  [][]tentry
	clock uint64

	// plans is the program's shared eligibility analysis at cfg.MinRun.
	plans *planSet
	// memResident counts live memOK traces, so the per-store fast path is
	// one integer compare.
	memResident int

	pending pendingRec
	scratch Trace

	stats Stats

	sink         telemetry.TraceSink
	everResident map[uint64]bool // cold/conflict attribution; sink-only

	// headAcc preserves per-head hit history across entry evictions so
	// HeadStats reflects the whole run, not just the resident set.
	headAcc map[uint64]HeadStat
}

// NewDTM builds a trace buffer for one program. It allocates a set's ways
// on the set's first install and each entry's instance and LRU banks on
// the entry's first install, so a run pays only for the heads it records;
// once every entry a run reaches is installed, operation allocates
// nothing. The head plans and their eligibility table are the program's,
// shared with every other DTM of it at the same MinRun.
func NewDTM(cfg DTMConfig, prog *ir.Program) *DTM {
	cfg = cfg.normalized()
	sets := cfg.Entries / cfg.Assoc
	if sets < 1 {
		sets = 1
	}
	dec := prog.Decoded()
	d := &DTM{
		cfg:   cfg,
		dec:   dec,
		ways:  make([][]tentry, sets),
		plans: planSetFor(dec, cfg.MinRun),
	}
	d.pending.ins = make([]int64, 0, maxTraceBank)
	d.scratch.Outputs = make([]crb.RegVal, 0, maxTraceBank)
	return d
}

// Config returns the (normalized) geometry.
func (d *DTM) Config() DTMConfig { return d.cfg }

// Stats returns a snapshot of the flat counters.
func (d *DTM) Stats() Stats { return d.stats }

// ResetStats zeroes the flat counters and per-head accounting without
// discarding recorded traces — the phase-analysis warm-buffer contract,
// same as crb.ResetStats.
func (d *DTM) ResetStats() {
	d.stats = Stats{}
	for _, w := range d.ways {
		for i := range w {
			w[i].hits = 0
			w[i].reused = 0
		}
	}
}

// SetSink attaches the telemetry sink. Like the CRB's, it must be attached
// before the first operation for cold/conflict attribution to be complete,
// and the nil-sink paths cost nothing.
func (d *DTM) SetSink(s telemetry.TraceSink) {
	d.sink = s
	if s != nil && d.everResident == nil {
		d.everResident = make(map[uint64]bool)
	}
}

// HeadStats returns the per-head reuse contributions, resident entries
// merged with evicted history, sorted by (function, head PC).
func (d *DTM) HeadStats() []HeadStat {
	acc := make(map[uint64]HeadStat)
	for _, w := range d.ways {
		for i := range w {
			e := &w[i]
			if e.hits == 0 {
				continue
			}
			hs := acc[e.key]
			hs.Hits += e.hits
			hs.Reused += e.reused
			acc[e.key] = hs
		}
	}
	for key, hs := range d.headAcc {
		cur := acc[key]
		cur.Hits += hs.Hits
		cur.Reused += hs.Reused
		acc[key] = cur
	}
	out := make([]HeadStat, 0, len(acc))
	for key, hs := range acc {
		hs.Fn, hs.PC = DecodeHead(key)
		out = append(out, hs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].PC < out[j].PC
	})
	return out
}

// headAcc accumulates per-head hit history across evictions so HeadStats
// survives capacity pressure. Allocated lazily on first eviction of a head
// with history.
func (d *DTM) accumulateHead(e *tentry) {
	if e.hits == 0 && e.reused == 0 {
		return
	}
	if d.headAcc == nil {
		d.headAcc = make(map[uint64]HeadStat)
	}
	hs := d.headAcc[e.key]
	hs.Hits += e.hits
	hs.Reused += e.reused
	d.headAcc[e.key] = hs
	e.hits, e.reused = 0, 0
}

// setIdx maps a head key onto its set. The packed key's low bits are
// block-structured (flat PCs cluster), so spread with a 64-bit finalizer
// before reducing.
func (d *DTM) setIdx(key uint64) int {
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(len(d.ways)))
}

// findEntry returns the resident entry for key, or nil.
func (d *DTM) findEntry(key uint64) *tentry {
	w := d.ways[d.setIdx(key)]
	for i := range w {
		e := &w[i]
		if e.valid && e.key == key {
			return e
		}
	}
	return nil
}

// planFor returns the eligibility plan for (fn, head), nil when the head
// is ineligible. Out-of-range identities — possible only from fuzzed or
// chaos-perturbed callers — are ineligible, never a panic.
func (d *DTM) planFor(fn ir.FuncID, head int32) *headPlan {
	if fn < 0 || int(fn) >= len(d.plans.plans) {
		return nil
	}
	ps := d.plans.plans[fn]
	if head < 0 || int(head) >= len(ps) {
		return nil
	}
	return ps[head]
}

// EligibleHeads returns the table elig[fn][pc] of whether the run headed
// at flat PC pc of fn is statically recordable. At an ineligible head both
// Lookup and Begin are unconditional no-ops (no stats, no state
// transitions), which is what lets the emulator's batch tier skip the
// landing hook there while no recording is pending (emu's headEligible
// fast path). The table is pure program analysis, shared by every DTM of
// the program at this MinRun; callers must not modify it.
func (d *DTM) EligibleHeads() [][]bool { return d.plans.elig }

// buildPlan runs the static trace-eligibility analysis for the run of
// prog headed at flat PC head of df, returning nil when the head is
// ineligible. See headPlan for the eligibility contract.
func buildPlan(prog *ir.Program, df *ir.DecodedFunc, head int32, minRun int) *headPlan {
	sentinel := int32(len(df.Code) - 1)
	end := df.RunEnd[head]
	if end >= sentinel || end < head {
		return nil // run falls off the end of the function
	}
	ender := df.Code[end].Op
	if ender != ir.Jmp && !ender.IsCondBranch() {
		return nil // Call/Ret/Reuse enders have dynamic successors
	}
	n := end - head + 1
	if int(n) < minRun {
		return nil
	}
	p := &headPlan{head: head, end: end, n: n}
	defined := func(r ir.Reg) bool {
		for _, o := range p.outs {
			if o == r {
				return true
			}
		}
		return false
	}
	addIn := func(r ir.Reg) bool {
		if r == ir.NoReg || defined(r) {
			return true
		}
		for _, o := range p.ins {
			if o == r {
				return true
			}
		}
		if len(p.ins) == maxTraceBank {
			return false
		}
		p.ins = append(p.ins, r)
		return true
	}
	for pc := head; pc <= end; pc++ {
		in := &df.Code[pc]
		readsSrc1, readsSrc2 := false, false
		switch {
		case in.Op == ir.Nop || in.Op == ir.MovI || in.Op == ir.Jmp:
			// no register reads
		case in.Op == ir.Mov || in.Op == ir.Ld || in.Op == ir.Lea:
			readsSrc1 = true
		case in.Op == ir.Reuse:
			// Reuse classifies as a conditional branch (taken on a CRB hit),
			// but its transfer decision and register writes live in the CRB,
			// not the register file — a run ending here would memoize the
			// *reuse hit's* outputs with no input or memory dependence and
			// replay them after the CRB instance is invalidated. Never
			// replayable.
			return nil
		case in.Op.IsBinaryALU() || in.Op.IsCondBranch():
			readsSrc1, readsSrc2 = true, true
		default:
			// St, Call, Ret, Inval, or anything unknown: the run has side
			// effects or dynamic control we cannot replay.
			return nil
		}
		if readsSrc1 && !addIn(in.Src1) {
			return nil
		}
		if readsSrc2 && in.Src2 != ir.NoReg && !addIn(in.Src2) {
			return nil
		}
		if in.Op == ir.Ld {
			m := ir.MemID(in.Aux)
			if m == ir.NoMem {
				return nil // unknown provenance: cannot watch stores
			}
			if !prog.Objects[m].ReadOnly {
				p.usesMem = true
				seen := false
				for _, o := range p.mems {
					if o == m {
						seen = true
						break
					}
				}
				if !seen {
					p.mems = append(p.mems, m)
				}
			}
		}
		if in.Op.HasDest() && in.Dest != ir.NoReg && !defined(in.Dest) {
			if len(p.outs) == maxTraceBank {
				return nil
			}
			p.outs = append(p.outs, in.Dest)
		}
	}
	e := &df.Code[end]
	p.succTarget = e.Target
	p.succFall = -1
	if e.Op.IsCondBranch() {
		p.succFall = end + 1
	}
	return p
}

// sigOfVals is the FNV-style signature of the head's input values under a
// plan's fixed input-register order — the fast filter before the exact
// value compare, same idea as the CRB's instance signatures.
func sigOfVals(regs []int64, ins []ir.Reg) uint64 {
	h := uint64(1469598103934665603)
	for _, r := range ins {
		h = (h ^ uint64(regs[r])) * 1099511628211
	}
	return h
}

// Lookup probes the buffer at a landing. On a hit it returns the scratch
// Trace (valid until the next call) and charges per-head accounting; on a
// miss it attributes the cause to telemetry when a sink is attached.
// Landings at ineligible heads return a miss without touching the buffer
// or the counters.
func (d *DTM) Lookup(fn ir.FuncID, head int32, regs []int64) (*Trace, bool) {
	plan := d.planFor(fn, head)
	if plan == nil {
		return nil, false
	}
	d.stats.Lookups++
	key := EncodeHead(fn, head)
	e := d.findEntry(key)
	if e == nil {
		d.stats.TagMisses++
		if d.sink != nil {
			out := telemetry.MissCold
			if d.everResident[key] {
				out = telemetry.MissConflict
			}
			d.sink.TraceLookup(key, out)
		}
		return nil, false
	}
	sig := sigOfVals(regs, plan.ins)
	memBlocked := false
scan:
	for i := range e.cis {
		ci := &e.cis[i]
		if !ci.valid || ci.sig != sig {
			continue
		}
		for j, r := range plan.ins {
			if ci.ins[j] != regs[r] {
				continue scan
			}
		}
		if plan.usesMem && !ci.memOK {
			memBlocked = true
			continue
		}
		d.clock++
		e.lastUse[i] = d.clock
		e.lastTouch = d.clock
		e.hits++
		e.reused += int64(plan.n)
		d.stats.Hits++
		tr := &d.scratch
		tr.Outputs = tr.Outputs[:0]
		for j, r := range plan.outs {
			tr.Outputs = append(tr.Outputs, crb.RegVal{Reg: r, Val: ci.outs[j]})
		}
		tr.NextPC = ci.next
		tr.Len = plan.n
		tr.UsesMem = plan.usesMem
		if d.sink != nil {
			d.sink.TraceLookup(key, telemetry.Hit)
		}
		return tr, true
	}
	d.stats.InputMisses++
	if d.sink != nil {
		out := telemetry.MissInput
		if memBlocked {
			out = telemetry.MissMemInvalid
		}
		d.sink.TraceLookup(key, out)
	}
	return nil, false
}

// Begin arms a recording at a missed landing: it snapshots the head's
// input values so the next landing can commit the run's outputs. Returns
// false (and arms nothing) when the head is ineligible. Arming overwrites
// any stale pending recording.
func (d *DTM) Begin(fn ir.FuncID, head int32, regs []int64) bool {
	plan := d.planFor(fn, head)
	if plan == nil {
		if d.pending.armed {
			d.Abort()
		}
		return false
	}
	p := &d.pending
	if p.armed {
		d.stats.Aborts++
	}
	p.armed = true
	p.fn = fn
	p.plan = plan
	p.ins = p.ins[:0]
	for _, r := range plan.ins {
		p.ins = append(p.ins, regs[r])
	}
	p.sig = sigOfVals(regs, plan.ins)
	d.stats.Begins++
	return true
}

// Complete finishes the pending recording at a landing. The commit is
// accepted only when the landing is one of the recorded run's two static
// successors in the same function — any other landing (fault recovery,
// reset, an engine restart) aborts. Returns whether a trace was stored.
func (d *DTM) Complete(fn ir.FuncID, landing int32, regs []int64) bool {
	p := &d.pending
	if !p.armed {
		return false
	}
	p.armed = false
	plan := p.plan
	if fn != p.fn || plan == nil {
		d.stats.Aborts++
		return false
	}
	if landing != plan.succTarget && (plan.succFall < 0 || landing != plan.succFall) {
		d.stats.Aborts++
		return false
	}
	df := d.dec.Funcs[fn]
	if int(landing) >= len(df.Code)-1 || landing < 0 {
		// A branch whose target predecodes to the sentinel slot: the
		// landing is "fell off the end" — not replayable.
		d.stats.Aborts++
		return false
	}
	e := d.ensureEntry(EncodeHead(fn, plan.head), plan)
	slot := -1
	for i := range e.cis {
		if !e.cis[i].valid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = 0
		for i := 1; i < len(e.cis); i++ {
			if e.lastUse[i] < e.lastUse[slot] {
				slot = i
			}
		}
		ci := &e.cis[slot]
		if plan.usesMem && ci.memOK {
			d.memResident--
		}
		if d.sink != nil {
			d.sink.TraceEvict(e.key, telemetry.EvictSlotLRU, 1)
		}
	}
	ci := &e.cis[slot]
	ci.valid = true
	ci.memOK = true
	ci.sig = p.sig
	ci.next = landing
	ci.ins = append(ci.ins[:0], p.ins...)
	ci.outs = ci.outs[:0]
	for _, r := range plan.outs {
		ci.outs = append(ci.outs, regs[r])
	}
	if plan.usesMem {
		d.memResident++
	}
	d.clock++
	e.lastUse[slot] = d.clock
	e.lastTouch = d.clock
	d.stats.Records++
	if d.sink != nil {
		d.sink.TraceCommit(e.key, true)
	}
	return true
}

// ensureEntry returns the entry for key, claiming an invalid way or
// evicting the set's LRU entry if the head is not resident.
func (d *DTM) ensureEntry(key uint64, plan *headPlan) *tentry {
	s := d.setIdx(key)
	w := d.ways[s]
	if w == nil {
		w = make([]tentry, d.cfg.Assoc)
		d.ways[s] = w
	}
	var victim *tentry
	for i := range w {
		e := &w[i]
		if e.valid && e.key == key {
			return e
		}
		if victim == nil || !e.valid || (victim.valid && e.lastTouch < victim.lastTouch) {
			if victim == nil || victim.valid {
				victim = e
			}
		}
	}
	e := victim
	if e.valid {
		live := 0
		for i := range e.cis {
			ci := &e.cis[i]
			if !ci.valid {
				continue
			}
			live++
			if e.plan.usesMem && ci.memOK {
				d.memResident--
			}
			ci.valid = false
		}
		d.accumulateHead(e)
		d.stats.Evictions++
		if d.sink != nil && live > 0 {
			d.sink.TraceEvict(e.key, telemetry.EvictCapacity, live)
		}
	} else {
		// An entry is never invalidated once installed, so this is its
		// first install: its banks are allocated here, not in NewDTM, so
		// a run pays only for the heads it records.
		e.cis = make([]tinstance, d.cfg.Instances)
		e.lastUse = make([]uint64, d.cfg.Instances)
	}
	e.key = key
	e.valid = true
	e.plan = plan
	e.hits, e.reused = 0, 0
	for i := range e.lastUse {
		e.lastUse[i] = 0
	}
	if d.everResident != nil {
		d.everResident[key] = true
	}
	return e
}

// Abort abandons the pending recording, if any. Machine reset and fault
// recovery call this so a half-recorded run can never commit against the
// wrong outputs.
func (d *DTM) Abort() {
	if d.pending.armed {
		d.pending.armed = false
		d.stats.Aborts++
	}
}

// Store is the invalidation channel: the engine reports every executed
// store's object and the buffer kills the memory-valid bit of every
// resident trace that loaded from it — the DTM analogue of the CCR
// scheme's explicit Inval instructions, with the compiler's alias
// knowledge replaced by store watching. A store with unknown provenance
// (ir.NoMem) conservatively kills every memory-dependent trace. Returns
// the number of traces killed. The common case — no memory-dependent
// trace resident — is a single integer compare.
func (d *DTM) Store(m ir.MemID) int {
	if d.memResident == 0 {
		return 0
	}
	n := 0
	if m >= 0 && int(m) < len(d.plans.memHeads) {
		for _, key := range d.plans.memHeads[m] {
			e := d.findEntry(key)
			if e == nil {
				continue
			}
			n += d.killMemTraces(e)
		}
	} else {
		for _, w := range d.ways {
			for i := range w {
				e := &w[i]
				if !e.valid || !e.plan.usesMem {
					continue
				}
				n += d.killMemTraces(e)
			}
		}
	}
	d.stats.Invalidates += int64(n)
	if d.sink != nil && n > 0 {
		d.sink.TraceStore(m, n)
	}
	return n
}

// killMemTraces clears the memory-valid bit of every live trace in e.
func (d *DTM) killMemTraces(e *tentry) int {
	killed := 0
	for i := range e.cis {
		ci := &e.cis[i]
		if ci.valid && ci.memOK {
			ci.memOK = false
			killed++
		}
	}
	d.memResident -= killed
	if killed > 0 && d.sink != nil {
		d.sink.TraceEvict(e.key, telemetry.EvictInvalidation, killed)
	}
	return killed
}

// ResidentTraces counts live (replayable) trace instances — test hook.
func (d *DTM) ResidentTraces() int {
	n := 0
	for _, w := range d.ways {
		for i := range w {
			e := &w[i]
			if !e.valid {
				continue
			}
			for j := range e.cis {
				ci := &e.cis[j]
				if ci.valid && (!e.plan.usesMem || ci.memOK) {
					n++
				}
			}
		}
	}
	return n
}

// LookupAny returns any resident trace for the head regardless of input
// match or memory validity. It exists solely as a chaos-injection seam
// (a broken input comparator / stuck valid bit cannot be expressed through
// the architectural interface) and must never be called by engines.
func (d *DTM) LookupAny(fn ir.FuncID, head int32) (*Trace, bool) {
	plan := d.planFor(fn, head)
	if plan == nil {
		return nil, false
	}
	e := d.findEntry(EncodeHead(fn, head))
	if e == nil {
		return nil, false
	}
	for i := range e.cis {
		ci := &e.cis[i]
		if !ci.valid {
			continue
		}
		return d.fillScratch(plan, ci), true
	}
	return nil, false
}

// LookupStale returns a trace whose inputs match the current registers but
// whose memory-valid bit has been cleared — the instance a correct buffer
// refuses to serve. Chaos-injection seam; see LookupAny.
func (d *DTM) LookupStale(fn ir.FuncID, head int32, regs []int64) (*Trace, bool) {
	plan := d.planFor(fn, head)
	if plan == nil || !plan.usesMem {
		return nil, false
	}
	e := d.findEntry(EncodeHead(fn, head))
	if e == nil {
		return nil, false
	}
	sig := sigOfVals(regs, plan.ins)
scan:
	for i := range e.cis {
		ci := &e.cis[i]
		if !ci.valid || ci.memOK || ci.sig != sig {
			continue
		}
		for j, r := range plan.ins {
			if ci.ins[j] != regs[r] {
				continue scan
			}
		}
		return d.fillScratch(plan, ci), true
	}
	return nil, false
}

func (d *DTM) fillScratch(plan *headPlan, ci *tinstance) *Trace {
	tr := &d.scratch
	tr.Outputs = tr.Outputs[:0]
	for j, r := range plan.outs {
		tr.Outputs = append(tr.Outputs, crb.RegVal{Reg: r, Val: ci.outs[j]})
	}
	tr.NextPC = ci.next
	tr.Len = plan.n
	tr.UsesMem = plan.usesMem
	return tr
}
