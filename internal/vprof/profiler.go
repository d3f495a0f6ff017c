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
//
// A Profiler is fed one call per executed instruction (Fold). Attach it
// as emu.Machine.Profile, where the engine folds it inline on its batch
// tier (core.ProfileRun does this), or feed it events through Tracer(),
// the reference feed for the interpreter and for tests. Both feeds deliver
// the same facts, so they build the same profile.
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
	loop  *loopInfo
	iters int64
	rec   invRecord
	// known is a bitset by register: defined since entry or already
	// recorded as an input, so a use of it records nothing.
	known []uint64
}

// pkind is what an instruction folds beyond its execution count.
type pkind uint8

const (
	kPlain  pkind = iota // nothing
	kPair                // binary ALU op: the (v1, v2) input tuple
	kMov                 // Mov: the (v1, 0) input tuple
	kLd                  // Ld: the (address, result) tuple and memory reuse
	kSt                  // St: a version bump of its object
	kBranch              // conditional branch or Reuse: (v1, v2) and the taken count
	kCall                // Call: its first two arguments; opens a frame
	kRet                 // Ret: closes the frame
)

// pentry is the static profiling description of the instruction at one
// global instruction index, resolved once per program as uarch's timing
// table is, so the fold reads no *ir.Instr. Loop membership can change
// only at a block's first instruction, so only there does the fold look
// at the function and block.
type pentry struct {
	kind  pkind
	start bool  // the first instruction of its block
	nargs uint8 // a Call's argument count, capped at 2
	// use1 and use2 are the sources a loop records as used inputs (NoReg
	// for none, and for Nop, MovI and Jmp); def is the defined register.
	use1, use2, def ir.Reg
	fn              ir.FuncID
	block           ir.BlockID
	mem             ir.MemID // a Ld's or St's object
	imm             int64    // a Ld's offset: its address is v1 + imm
}

// Profiler accumulates the RPS profile from one call per executed
// instruction. Attach it as emu.Machine.Profile (or feed Tracer()'s hook
// events) and call Finish() afterwards.
type Profiler struct {
	prog *ir.Program
	tab  []pentry // by global instruction index

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
	lastBlock []ir.BlockID // per depth: the block last entered
	acts      []*loopAct   // per depth, nil until a loop first runs there
	// rec is the current depth's invocation while it records used
	// inputs (an active non-barrier loop), else nil.
	rec *loopAct

	totalDyn int64
}

// NewProfiler prepares a profiler for the linked program p.
func NewProfiler(p *ir.Program) *Profiler {
	pr := &Profiler{
		prog:       p,
		tab:        make([]pentry, p.TextLen),
		exec:       make([]int64, p.TextLen),
		taken:      make([]int64, p.TextLen),
		values:     make([]*ValueCounter, p.TextLen),
		loads:      make([]*loadProf, p.TextLen),
		objVer:     make([]uint64, len(p.Objects)),
		headerLoop: make([][]*loopInfo, len(p.Funcs)),
		lastBlock:  []ir.BlockID{ir.NoBlock},
		acts:       []*loopAct{nil},
	}
	for _, f := range p.Funcs {
		pr.fillTable(f)
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

// fillTable resolves the static profiling facts of f's instructions.
// Blocks are laid out contiguously in block order, so global indices run
// consecutively from the function's first instruction.
func (pr *Profiler) fillTable(f *ir.Func) {
	g := f.InstrAddr(0, 0) >> 2
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			e := &pr.tab[g]
			g++
			e.start, e.fn, e.block, e.def = i == 0, f.ID, b.ID, in.Def()
			switch in.Op {
			case ir.Nop, ir.MovI, ir.Jmp:
			default:
				e.use1, e.use2 = in.Src1, in.Src2
			}
			switch {
			case in.Op.IsBinaryALU():
				e.kind = kPair
			case in.Op == ir.Mov:
				e.kind = kMov
			case in.Op == ir.Ld:
				e.kind, e.mem, e.imm = kLd, in.Mem, in.Imm
			case in.Op == ir.St:
				e.kind, e.mem = kSt, in.Mem
			case in.Op.IsCondBranch():
				e.kind = kBranch
			case in.Op == ir.Call:
				e.kind, e.nargs = kCall, uint8(min(len(in.Args), 2))
			case in.Op == ir.Ret:
				e.kind = kRet
			}
		}
	}
}

// Tracer returns an event hook that folds each event as Fold does: the
// reference feed for the interpreter and for tests.
func (pr *Profiler) Tracer() emu.Tracer {
	return func(ev *emu.Event) { pr.Fold(ev.PC, ev.Val1, ev.Val2, ev.Taken, ev.Regs) }
}

// Fold implements emu.ProfileFold: it folds the executed instruction at
// byte address pc, whose operands were v1 and v2, into the profile.
func (pr *Profiler) Fold(pc, v1, v2 int64, taken bool, regs []int64) {
	pr.totalDyn++
	gidx := int(pc >> 2)
	pr.exec[gidx]++
	e := &pr.tab[gidx]

	if e.start {
		pr.enterBlock(e, regs)
	}
	if a := pr.rec; a != nil {
		// Record used inputs for the active invocation.
		if e.use1 != ir.NoReg {
			a.noteUse(e.use1, v1)
		}
		if e.use2 != ir.NoReg {
			a.noteUse(e.use2, v2)
		}
		if dr := e.def; dr != ir.NoReg {
			a.known[dr>>6] |= 1 << (dr & 63)
		}
	}

	switch e.kind {
	case kPair:
		pr.counter(gidx).Observe(v1, v2)
	case kMov:
		pr.counter(gidx).Observe(v1, 0)
	case kLd:
		pr.counter(gidx).Observe(v1+e.imm, regs[e.def])
		pr.observeLoad(gidx, e.mem)
	case kSt:
		if e.mem != ir.NoMem {
			pr.objVer[e.mem]++
		} else {
			pr.anonVer++
		}
	case kBranch:
		pr.counter(gidx).Observe(v1, v2)
		if taken {
			pr.taken[gidx]++
		}
	case kCall:
		// Call-argument recurrence drives function-level region
		// selection. The callee frame's parameters hold the argument
		// values. The call opens a frame for loop tracking.
		var a0, a1 int64
		if e.nargs > 0 && len(regs) > 1 {
			a0 = regs[1]
		}
		if e.nargs > 1 && len(regs) > 2 {
			a1 = regs[2]
		}
		pr.counter(gidx).Observe(a0, a1)
		pr.depth++
		if pr.depth >= len(pr.lastBlock) {
			pr.lastBlock = append(pr.lastBlock, ir.NoBlock)
			pr.acts = append(pr.acts, nil)
		} else {
			pr.lastBlock[pr.depth] = ir.NoBlock
			if a := pr.acts[pr.depth]; a != nil {
				a.loop = nil
			}
		}
		pr.rec = nil
	case kRet:
		pr.finishAct(pr.depth)
		if pr.depth > 0 {
			pr.depth--
		}
		pr.rec = pr.recording(pr.depth)
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

// recording returns the in-flight invocation at depth d if it records
// used inputs (its loop is no barrier), or nil.
func (pr *Profiler) recording(d int) *loopAct {
	if a := pr.active(d); a != nil && !a.loop.barrier {
		return a
	}
	return nil
}

// enterBlock runs at the first instruction of every executed block, the
// only point where the current depth's loop activation can change: it
// ends the invocation when control has left its loop, and at a loop
// header counts an iteration or starts an invocation, matching its entry
// state (regs) against the invocation history CRB-style.
func (pr *Profiler) enterBlock(e *pentry, regs []int64) {
	d := pr.depth
	cur := pr.active(d)
	if cur != nil && (cur.loop.key.Func != e.fn || !cur.loop.blocks[e.block]) {
		// Control left the active loop.
		pr.finishAct(d)
		cur = nil
	}
	if li := pr.headerLoop[e.fn][e.block]; li != nil {
		// An active invocation of li belongs to this frame, so the
		// block last entered at this depth is in li's function.
		prev := pr.lastBlock[d]
		if cur != nil && cur.loop == li && prev != ir.NoBlock && li.blocks[prev] {
			cur.iters++
			li.prof.TotalIterations++
		} else {
			pr.finishAct(d)
			li.prof.Invocations++
			li.prof.TotalIterations++
			cur = pr.beginAct(d, li)
			if li.matchHistory(regs, &cur.rec) {
				li.prof.ReusableInvocations++
			}
		}
	}
	pr.lastBlock[d] = e.block
	pr.rec = pr.recording(d)
}

// beginAct starts recording an invocation of li at depth d, snapshotting
// the versions of the objects the loop loads.
func (pr *Profiler) beginAct(d int, li *loopInfo) *loopAct {
	a := pr.acts[d]
	if a == nil {
		a = &loopAct{
			rec:   invRecord{objVers: make([]uint64, 0, pr.maxObjs)},
			known: make([]uint64, pr.maxRegs/64+1),
		}
		pr.acts[d] = a
	}
	a.loop = li
	a.iters = 1
	clear(a.known)
	a.rec.nInputs = 0
	a.rec.objVers = a.rec.objVers[:len(li.objs)]
	for i, o := range li.objs {
		a.rec.objVers[i] = pr.objVer[o]
	}
	a.rec.anonVer = pr.anonVer
	a.rec.overflow = false
	return a
}

// noteUse records r, read with value v, as a used input unless it was
// defined or recorded earlier in the invocation.
func (a *loopAct) noteUse(r ir.Reg, v int64) {
	w, bit := r>>6, uint64(1)<<(r&63)
	if a.rec.overflow || a.known[w]&bit != 0 {
		return
	}
	a.known[w] |= bit
	rec := &a.rec
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
