// Package vprof implements the Reuse Profiling System (RPS) of the paper
// (§4.2): a value-profiling pass that reports, for every static
// instruction, its execution weight and input-value invariance; for every
// load, the stability of its referenced memory; and for every inner loop,
// the recurrence of its invocation inputs. The profile drives the
// region-formation heuristics of §4.4.
//
// Cyclic recurrence is profiled the way the CRB hardware would observe it:
// each invocation records the registers actually consumed before being
// defined (path-sensitive "used inputs") plus the version stamps of the
// objects the loop loads; a later invocation is a reuse opportunity when
// all recorded inputs of one of the last eight records match its entry
// state. Static live-in signatures would be too conservative — the paper's
// ckbrkpts example (Figure 3) is reusable precisely because the hot path
// never reads the varying address operand.
package vprof

import (
	"slices"
	"strconv"
	"strings"

	"ccr/internal/analysis"
	"ccr/internal/emu"
	"ccr/internal/ir"
)

// InvariantK is the number of tracked invariant values used by the
// heuristics ("setting ... the number of invariant values to five", §4.4).
const InvariantK = 5

// HistoryRecords is the invocation-history depth for cyclic recurrence
// profiling, matching the eight records of the paper's limit study.
const HistoryRecords = 8

// maxTrackedInputs bounds per-invocation input recording; invocations
// consuming more registers than a computation instance could hold are
// never reusable anyway.
const maxTrackedInputs = 16

// LoopKey identifies a natural loop by function and header block.
type LoopKey struct {
	Func   ir.FuncID
	Header ir.BlockID
}

// LoopProfile aggregates cyclic-recurrence information for one inner loop.
type LoopProfile struct {
	// Invocations counts entries into the loop from outside.
	Invocations int64
	// ReusableInvocations counts invocations whose entry state matched
	// the used-input record of one of the last HistoryRecords
	// invocations.
	ReusableInvocations int64
	// MultiIterInvocations counts invocations executing >1 iteration.
	MultiIterInvocations int64
	// TotalIterations accumulates header executions.
	TotalIterations int64
}

// ReuseOpportunity is the fraction of invocations with recurring inputs.
func (lp *LoopProfile) ReuseOpportunity() float64 {
	if lp.Invocations == 0 {
		return 0
	}
	return float64(lp.ReusableInvocations) / float64(lp.Invocations)
}

// MultiIterRatio is the fraction of invocations with multiple iterations.
func (lp *LoopProfile) MultiIterRatio() float64 {
	if lp.Invocations == 0 {
		return 0
	}
	return float64(lp.MultiIterInvocations) / float64(lp.Invocations)
}

type loadProf struct {
	execs   int64
	reuses  int64
	lastVer uint64
	lastAny uint64
	primed  bool
}

// loopInfo is the static description of one profiled inner loop, plus
// the ring of its last HistoryRecords invocation records.
type loopInfo struct {
	key     LoopKey
	blocks  []bool // by block ID: member of the loop
	objs    []ir.MemID
	barrier bool // loop contains stores or calls: not a reuse candidate
	prof    *LoopProfile

	hist     [HistoryRecords]invRecord
	histLen  int // valid records
	histNext int // slot the next record overwrites
}

// regVal is one recorded used-input.
type regVal struct {
	reg ir.Reg
	val int64
}

// invRecord is one invocation's reuse-relevant state. Its inputs are held
// inline and objVers is a buffer of len(loop.objs) owned by the record,
// so recording and pushing an invocation allocates nothing.
type invRecord struct {
	inputs   [maxTrackedInputs]regVal
	nInputs  int
	objVers  []uint64
	anonVer  uint64
	overflow bool // too many inputs: never matches
}

// copyFrom overwrites r with src; both objVers buffers have the loop's
// length.
func (r *invRecord) copyFrom(src *invRecord) {
	r.nInputs = copy(r.inputs[:], src.inputs[:src.nInputs])
	copy(r.objVers, src.objVers)
	r.anonVer = src.anonVer
	r.overflow = src.overflow
}

// loopAct is an in-flight invocation being recorded. One is kept per frame
// depth and reused by every invocation at that depth; loop is nil while
// the depth has no active loop.
type loopAct struct {
	loop    *loopInfo
	iters   int64
	rec     invRecord
	defined []uint64 // bitset by register: defined since entry
}

// Profiler consumes an emulation event stream and accumulates the RPS
// profile. Use Tracer() as the Machine trace hook and Finish() afterwards.
type Profiler struct {
	prog *ir.Program

	exec  []int64
	taken []int64

	// values and loads are indexed by global instruction index and
	// filled on an instruction's first profiled execution.
	values []*ValueCounter
	loads  []*loadProf

	objVer  []uint64
	anonVer uint64

	headerLoop [][]*loopInfo // by func, then block; nil if not a header
	loops      []*loopInfo
	maxRegs    int // highest register index of any function
	maxObjs    int // most objects any loop loads

	depth     int
	lastBlock []ir.BlockID // per depth
	lastFunc  []ir.FuncID
	acts      []*loopAct // per depth, nil until a loop first runs there

	totalDyn int64
}

// NewProfiler prepares a profiler for the linked program p.
func NewProfiler(p *ir.Program) *Profiler {
	pr := &Profiler{
		prog:       p,
		exec:       make([]int64, p.TextLen),
		taken:      make([]int64, p.TextLen),
		values:     make([]*ValueCounter, p.TextLen),
		loads:      make([]*loadProf, p.TextLen),
		objVer:     make([]uint64, len(p.Objects)),
		headerLoop: make([][]*loopInfo, len(p.Funcs)),
		lastBlock:  []ir.BlockID{ir.NoBlock},
		lastFunc:   []ir.FuncID{ir.NoFunc},
		acts:       []*loopAct{nil},
	}
	for _, f := range p.Funcs {
		pr.maxRegs = max(pr.maxRegs, f.NumRegs)
		pr.headerLoop[f.ID] = make([]*loopInfo, len(f.Blocks))
		g := analysis.BuildCFG(f)
		dom := analysis.BuildDomTree(g)
		for _, l := range analysis.FindLoops(g, dom) {
			if !l.Inner() {
				continue
			}
			li := &loopInfo{
				key:    LoopKey{f.ID, l.Header},
				blocks: make([]bool, len(f.Blocks)),
				prof:   &LoopProfile{},
			}
			objSeen := map[ir.MemID]bool{}
			for _, b := range l.Blocks {
				li.blocks[b] = true
				for i := range f.Blocks[b].Instrs {
					in := &f.Blocks[b].Instrs[i]
					switch in.Op {
					case ir.St, ir.Call, ir.Ret, ir.Inval:
						li.barrier = true
					case ir.Ld:
						if in.Mem != ir.NoMem && !objSeen[in.Mem] {
							objSeen[in.Mem] = true
							li.objs = append(li.objs, in.Mem)
						}
					}
				}
			}
			if !li.barrier {
				vers := make([]uint64, HistoryRecords*len(li.objs))
				for i := range li.hist {
					li.hist[i].objVers = vers[i*len(li.objs) : (i+1)*len(li.objs)]
				}
			}
			pr.maxObjs = max(pr.maxObjs, len(li.objs))
			pr.headerLoop[f.ID][l.Header] = li
			pr.loops = append(pr.loops, li)
		}
	}
	return pr
}

// Tracer returns the event hook to install on an emu.Machine.
func (pr *Profiler) Tracer() emu.Tracer { return pr.observe }

func (pr *Profiler) observe(ev *emu.Event) {
	pr.totalDyn++
	gidx := int(ev.PC >> 2)
	pr.exec[gidx]++
	in := ev.Instr

	pr.trackLoops(ev)

	switch {
	case in.Op.IsBinaryALU():
		pr.counter(gidx).Observe(ev.Val1, ev.Val2)
	case in.Op == ir.Mov:
		pr.counter(gidx).Observe(ev.Val1, 0)
	case in.Op == ir.Ld:
		pr.counter(gidx).Observe(ev.Addr, ev.Result)
		pr.observeLoad(gidx, in.Mem)
	case in.Op == ir.St:
		if in.Mem != ir.NoMem {
			pr.objVer[in.Mem]++
		} else {
			pr.anonVer++
		}
	case in.Op.IsCondBranch():
		pr.counter(gidx).Observe(ev.Val1, ev.Val2)
	case in.Op == ir.Call:
		// Call-argument recurrence drives function-level region
		// selection. The event's register view is the callee frame,
		// whose parameters hold the argument values.
		var a0, a1 int64
		if len(in.Args) > 0 && len(ev.Regs) > 1 {
			a0 = ev.Regs[1]
		}
		if len(in.Args) > 1 && len(ev.Regs) > 2 {
			a1 = ev.Regs[2]
		}
		pr.counter(gidx).Observe(a0, a1)
	}
	if in.Op.IsCondBranch() && ev.Taken {
		pr.taken[gidx]++
	}

	// Call/return adjust the frame depth for loop tracking.
	switch in.Op {
	case ir.Call:
		pr.depth++
		if pr.depth >= len(pr.lastBlock) {
			pr.lastBlock = append(pr.lastBlock, ir.NoBlock)
			pr.lastFunc = append(pr.lastFunc, ir.NoFunc)
			pr.acts = append(pr.acts, nil)
		} else {
			pr.lastBlock[pr.depth] = ir.NoBlock
			pr.lastFunc[pr.depth] = ir.NoFunc
			if a := pr.acts[pr.depth]; a != nil {
				a.loop = nil
			}
		}
	case ir.Ret:
		pr.finishAct(pr.depth)
		if pr.depth > 0 {
			pr.depth--
		}
	}
}

func (pr *Profiler) counter(gidx int) *ValueCounter {
	c := pr.values[gidx]
	if c == nil {
		c = &ValueCounter{}
		pr.values[gidx] = c
	}
	return c
}

func (pr *Profiler) observeLoad(gidx int, obj ir.MemID) {
	lp := pr.loads[gidx]
	if lp == nil {
		lp = &loadProf{}
		pr.loads[gidx] = lp
	}
	lp.execs++
	var ver uint64
	if obj != ir.NoMem {
		ver = pr.objVer[obj]
	}
	if lp.primed && lp.lastVer == ver && lp.lastAny == pr.anonVer && obj != ir.NoMem {
		lp.reuses++
	}
	lp.primed = true
	lp.lastVer = ver
	lp.lastAny = pr.anonVer
}

// active returns the in-flight invocation at depth d, or nil.
func (pr *Profiler) active(d int) *loopAct {
	if a := pr.acts[d]; a != nil && a.loop != nil {
		return a
	}
	return nil
}

// trackLoops maintains per-frame loop activations, recording used inputs
// CRB-style and matching them against the invocation history.
func (pr *Profiler) trackLoops(ev *emu.Event) {
	d := pr.depth
	fid := ev.Func.ID
	cur := pr.active(d)

	if cur != nil && (cur.loop.key.Func != fid || !cur.loop.blocks[ev.Block]) {
		// Control left the active loop.
		pr.finishAct(d)
		cur = nil
	}

	if ev.Index == 0 {
		if li := pr.headerLoop[fid][ev.Block]; li != nil {
			prev := pr.lastBlock[d]
			backEdge := cur != nil && cur.loop == li && prev != ir.NoBlock &&
				pr.lastFunc[d] == fid && li.blocks[prev]
			if backEdge {
				cur.iters++
				li.prof.TotalIterations++
			} else {
				pr.finishAct(d)
				li.prof.Invocations++
				li.prof.TotalIterations++
				cur = pr.beginAct(d, li)
				if li.matchHistory(ev.Regs, &cur.rec) {
					li.prof.ReusableInvocations++
				}
			}
		}
	}

	// Record used inputs for the active invocation.
	if cur != nil && !cur.loop.barrier {
		in := ev.Instr
		switch in.Op {
		case ir.Nop, ir.MovI, ir.Jmp:
		default:
			if in.Src1 != ir.NoReg {
				cur.noteUse(in.Src1, ev.Val1)
			}
			if in.Src2 != ir.NoReg {
				cur.noteUse(in.Src2, ev.Val2)
			}
		}
		if dr := in.Def(); dr != ir.NoReg {
			cur.defined[dr>>6] |= 1 << (dr & 63)
		}
	}

	pr.lastBlock[d] = ev.Block
	pr.lastFunc[d] = fid
}

// beginAct starts recording an invocation of li at depth d, snapshotting
// the versions of the objects the loop loads.
func (pr *Profiler) beginAct(d int, li *loopInfo) *loopAct {
	a := pr.acts[d]
	if a == nil {
		a = &loopAct{
			rec:     invRecord{objVers: make([]uint64, 0, pr.maxObjs)},
			defined: make([]uint64, pr.maxRegs/64+1),
		}
		pr.acts[d] = a
	}
	a.loop = li
	a.iters = 1
	clear(a.defined)
	a.rec.nInputs = 0
	a.rec.objVers = a.rec.objVers[:len(li.objs)]
	for i, o := range li.objs {
		a.rec.objVers[i] = pr.objVer[o]
	}
	a.rec.anonVer = pr.anonVer
	a.rec.overflow = false
	return a
}

func (a *loopAct) noteUse(r ir.Reg, v int64) {
	if a.rec.overflow || a.defined[r>>6]&(1<<(r&63)) != 0 {
		return
	}
	rec := &a.rec
	for _, rv := range rec.inputs[:rec.nInputs] {
		if rv.reg == r {
			return
		}
	}
	if rec.nInputs >= maxTrackedInputs {
		rec.overflow = true
		return
	}
	rec.inputs[rec.nInputs] = regVal{reg: r, val: v}
	rec.nInputs++
}

// matchHistory reports whether the entry state (register file regs, memory
// versions snapshotted in cur) satisfies any recorded invocation: every
// used input of the record holds the same value now, and the loop's object
// versions are unchanged since the record was made.
func (li *loopInfo) matchHistory(regs []int64, cur *invRecord) bool {
	for i := range li.hist[:li.histLen] {
		rec := &li.hist[i]
		if rec.overflow {
			continue
		}
		if !slices.Equal(rec.objVers, cur.objVers) || rec.anonVer != cur.anonVer {
			continue
		}
		ok := true
		for _, rv := range rec.inputs[:rec.nInputs] {
			if int(rv.reg) >= len(regs) || regs[rv.reg] != rv.val {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func (pr *Profiler) finishAct(d int) {
	act := pr.active(d)
	if act == nil {
		return
	}
	li := act.loop
	if act.iters > 1 {
		li.prof.MultiIterInvocations++
	}
	if !li.barrier {
		// Overwrite the oldest record once the ring is full.
		li.hist[li.histNext].copyFrom(&act.rec)
		li.histNext = (li.histNext + 1) % HistoryRecords
		li.histLen = min(li.histLen+1, HistoryRecords)
	}
	act.loop = nil
}

// Finish closes open loop activations and returns the completed profile.
func (pr *Profiler) Finish() *Profile {
	for d := range pr.acts {
		pr.finishAct(d)
	}
	loops := make(map[LoopKey]*LoopProfile, len(pr.loops))
	for _, li := range pr.loops {
		loops[li.key] = li.prof
	}
	return &Profile{
		prog:     pr.prog,
		exec:     pr.exec,
		taken:    pr.taken,
		values:   pr.values,
		loads:    pr.loads,
		Loops:    loops,
		TotalDyn: pr.totalDyn,
	}
}

// DebugHistory returns a human-readable dump of the invocation history of
// the loop at (f, header), oldest record first; for debugging only.
func (pr *Profiler) DebugHistory(f ir.FuncID, header ir.BlockID) string {
	if int(f) < 0 || int(f) >= len(pr.headerLoop) ||
		int(header) < 0 || int(header) >= len(pr.headerLoop[f]) {
		return ""
	}
	li := pr.headerLoop[f][header]
	if li == nil {
		return ""
	}
	var b strings.Builder
	for i := 0; i < li.histLen; i++ {
		rec := &li.hist[(li.histNext-li.histLen+i+HistoryRecords)%HistoryRecords]
		b.WriteString("rec:")
		for _, rv := range rec.inputs[:rec.nInputs] {
			b.WriteString(" r")
			b.WriteString(strconv.Itoa(int(rv.reg)))
			b.WriteByte('=')
			b.WriteString(strconv.FormatInt(rv.val, 10))
		}
		if rec.overflow {
			b.WriteString(" OVERFLOW")
		}
		b.WriteString(" vers=")
		for _, v := range rec.objVers {
			b.WriteString(strconv.FormatUint(v, 10))
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
