// Package emu is the functional emulator for the CCR intermediate
// representation. It executes linked programs instruction by instruction,
// implements the architectural semantics of the CCR instruction-set
// extensions (reuse lookup, memoization mode, instance commit, and
// invalidation) against a Computation Reuse Buffer, folds an optional
// oracle digest (Digest) and an optional value profile (Profile), and
// feeds an optional per-run hook (OnRun) as it executes.
//
// Two execution engines share one architectural semantics:
//
//   - the predecoded engine (the default, engine.go) runs the flat
//     ir.DecodedProgram form — a single tight loop over a dense
//     instruction array with pre-resolved operand indices and flat-PC
//     branch targets, allocation-free with no CRB attached;
//   - the block-structured interpreter (runInterp below) walks the CFG
//     form directly. It is retained as the reference implementation: the
//     differential gate (experiments.TestEngineDifferential, CI) checks
//     the two engines produce bit-identical internal/oracle digests —
//     trace checksums included — on every bench × dataset × swept config.
//     It is also the one source of per-instruction events: a run with a
//     tracer attached (Trace) always executes on it.
//
// Setting CCR_ENGINE=interp in the environment (or Machine.Interp)
// selects the interpreter for every run, e.g. to re-run a whole -verify
// sweep on the reference engine.
//
// The emulator is the "emulation" half of the paper's emulation-driven
// simulation methodology: the timing model in internal/uarch consumes the
// per-run feed (Machine.OnRun) or the event stream rather than re-deriving
// semantics.
package emu

import (
	"errors"
	"fmt"
	"os"

	"ccr/internal/crb"
	"ccr/internal/ir"
	"ccr/internal/reuse"
)

// ErrLimit is returned when a run exceeds its dynamic instruction budget.
var ErrLimit = errors.New("emu: dynamic instruction limit exceeded")

// Fault describes an architectural error in the emulated program.
type Fault struct {
	Func  string
	Block ir.BlockID
	Index int
	Msg   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("emu: fault in %s b%d[%d]: %s", f.Func, f.Block, f.Index, f.Msg)
}

type frame struct {
	f       *ir.Func
	regs    []int64
	b       ir.BlockID
	idx     int
	retDest ir.Reg
}

// funcMemo is a pending function-level recording.
type funcMemo struct {
	region   *ir.Region
	depth    int // frame depth at the reuse instruction
	inputs   []crb.RegVal
	startDyn int64
}

// memo tracks an active memoization-mode recording (paper §3.2).
type memo struct {
	active  bool
	region  *ir.Region
	inputs  []crb.RegVal
	outputs []crb.RegVal
	// defined is a bitset over the function's register indices (the
	// registers written since the region was entered); it replaces a
	// map[ir.Reg]bool so memoization mode stays off the allocator.
	defined []uint64
	usesMem bool
	count   int
}

func (m *memo) reset(r *ir.Region, numRegs int) {
	m.active = true
	m.region = r
	m.inputs = m.inputs[:0]
	m.outputs = m.outputs[:0]
	words := numRegs>>6 + 1
	if cap(m.defined) < words {
		m.defined = make([]uint64, words)
	} else {
		m.defined = m.defined[:words]
		clear(m.defined)
	}
	m.usesMem = false
	m.count = 0
}

func (m *memo) isDefined(r ir.Reg) bool {
	return m.defined[uint32(r)>>6]&(1<<(uint32(r)&63)) != 0
}

func (m *memo) markDefined(r ir.Reg) {
	m.defined[uint32(r)>>6] |= 1 << (uint32(r) & 63)
}

// noteUse records a register consumed before definition as an instance
// input. It reports false when the input bank would overflow.
func (m *memo) noteUse(r ir.Reg, v int64) bool {
	if r == ir.NoReg || m.isDefined(r) {
		return true
	}
	for _, in := range m.inputs {
		if in.Reg == r {
			return true
		}
	}
	if len(m.inputs) >= ir.RegionBankSize {
		return false
	}
	m.inputs = append(m.inputs, crb.RegVal{Reg: r, Val: v})
	return true
}

// noteDef records a definition; live-out definitions update the output bank.
func (m *memo) noteDef(r ir.Reg, v int64, liveOut bool) bool {
	m.markDefined(r)
	if !liveOut {
		return true
	}
	for i := range m.outputs {
		if m.outputs[i].Reg == r {
			m.outputs[i].Val = v
			return true
		}
	}
	if len(m.outputs) >= ir.RegionBankSize {
		return false
	}
	m.outputs = append(m.outputs, crb.RegVal{Reg: r, Val: v})
	return true
}

// ReuseBuffer is the emulator's view of the Computation Reuse Buffer: the
// three architectural operations the CCR ISA extensions perform. *crb.CRB
// is the real hardware model; test harnesses (internal/chaos) substitute
// wrappers that inject faults between the emulator and the buffer.
type ReuseBuffer interface {
	// Lookup searches the region's computation entry for an instance whose
	// inputs match the current register values. regs is the executing
	// frame's register file, indexed by ir.Reg; it covers every register
	// an instance of the region can name, and implementations must not
	// retain or modify it.
	Lookup(region ir.RegionID, regs []int64) (*crb.Instance, bool)
	// Commit installs a freshly recorded instance, reporting whether it
	// was stored. It copies inst's banks and never retains them: the
	// machine passes its recording scratch, which it reuses. The instance
	// a Lookup returned is valid until the next Commit.
	Commit(region ir.RegionID, inst crb.Instance) bool
	// Invalidate discards the memory-dependent instances of every region
	// registered against object m.
	Invalidate(m ir.MemID) int
}

// TraceBuffer is the emulator's view of a dynamic trace memoization buffer
// (reuse.DTM): the second reuse scheme, which forms and replays
// straight-line runs at runtime with no compiler support. The engine calls
// it at every *landing* — a PC where control arrives by branch, jump,
// call, return or reuse transfer — and notifies it of every executed
// store. *reuse.DTM is the real backend; internal/chaos substitutes
// fault-injecting wrappers.
//
// The transparency contract a backend must honor (DESIGN.md §13): a hit
// returned by Lookup must write exactly the register values the replaced
// run would have computed from the current register file and memory, and
// NextPC must be the landing the run would have transferred to. The
// returned Trace may alias internal scratch and is only valid until the
// next call.
type TraceBuffer interface {
	// Lookup probes for a replayable trace headed at flat PC head of
	// function fn. regs is the executing frame's register file; the
	// backend must not retain or modify it.
	Lookup(fn ir.FuncID, head int32, regs []int64) (*reuse.Trace, bool)
	// Begin arms a recording of the run headed at head after a miss,
	// snapshotting its input values. Returns whether a recording was
	// armed (ineligible heads arm nothing).
	Begin(fn ir.FuncID, head int32, regs []int64) bool
	// Complete finishes the pending recording, if any, at the next
	// landing; the backend validates the landing against the recorded
	// run's static successors and reads the outputs from regs.
	Complete(fn ir.FuncID, landing int32, regs []int64) bool
	// Abort abandons the pending recording, if any (machine reset, fault
	// recovery).
	Abort()
	// Store reports one executed store to object m (ir.NoMem for unknown
	// provenance) — the invalidation channel. Returns the number of
	// traces killed.
	Store(m ir.MemID) int
}

// interpDefault selects the legacy block-structured interpreter for every
// new Machine when CCR_ENGINE=interp is set in the environment — the
// escape hatch for re-running a whole sweep on the reference engine
// without touching call sites.
var interpDefault = os.Getenv("CCR_ENGINE") == "interp"

// Machine executes one program. Construct with New, run with Run.
type Machine struct {
	Prog *ir.Program
	Mem  []int64
	// CRB enables the CCR architectural extensions; with a nil CRB, reuse
	// instructions always miss and nothing is memoized (the transformed
	// program then behaves exactly like the base program, with overhead).
	CRB ReuseBuffer
	// DTM enables dynamic trace memoization (the second reuse scheme):
	// when non-nil, both engines probe it at every control-transfer
	// landing and report every executed store to it. Attach a *reuse.DTM
	// (or a chaos wrapper); nil runs are bit-identical to pre-DTM builds.
	DTM TraceBuffer
	// Trace, when non-nil, receives every executed dynamic instruction.
	// A traced run executes on the reference interpreter, the only
	// engine that builds events; the predecoded engine serves untraced
	// runs.
	Trace Tracer
	// Digest, when non-nil, accumulates the run's digest streams (see
	// Digest). The predecoded engine folds them inline on either tier,
	// without building events, and the interpreter from its own events.
	Digest *Digest
	// Profile, when non-nil, receives the run's value-profile fold (see
	// ProfileFold). Like Digest it is folded inline on either tier, and
	// the interpreter feeds it from its own events.
	Profile ProfileFold
	// OnRun, when non-nil, receives every executed straight-line run
	// (see Run): exactly the instructions a Trace would see, grouped per
	// run, with only their dynamic facts. The predecoded engine feeds it
	// from either tier; the interpreter regroups its events into runs.
	// DTM replays feed nothing, as they execute no instructions.
	OnRun RunHook
	// Limit bounds the number of dynamic instructions executed
	// (0 means the DefaultLimit).
	Limit int64
	// Interp selects the legacy block-structured interpreter instead of
	// the predecoded engine (differential testing; see the package
	// comment). Defaults to false unless CCR_ENGINE=interp is set.
	Interp bool

	Stats Stats

	// dec is the shared predecoded form of Prog (built once per program,
	// cached on it).
	dec     *ir.DecodedProgram
	frames  []frame  // interpreter call stack
	fframes []fframe // predecoded-engine call stack
	memo    memo
	// funcMemos is the stack of pending function-level recordings (§6
	// extension): each marker waits for the call made right after its
	// reuse instruction to return, then commits (args → result) to the
	// CRB. Markers match returns by frame depth (LIFO). Popped markers
	// keep their input banks for the next push at that depth.
	funcMemos []funcMemo
	// funcOuts is the output-bank scratch of a function-level commit.
	funcOuts []crb.RegVal
	// addrBase[f][b] is the byte address of block b's first instruction
	// (interpreter only; built lazily on the first interpreted run).
	addrBase [][]int64
	// lastInval carries the current Inval instruction's instance fan-out
	// from the interpreter's execute switch to the event emitted for it.
	lastInval int
	// regPool recycles register files across calls.
	regPool [][]int64
	// readOnly[m] caches object read-only flags for the memoization path.
	readOnly []bool
	// rstat is a flat RegionID-indexed cache over Stats.Regions, so the
	// reuse path never hashes a map key.
	rstat []*RegionStats
	// initMem is the pristine linked memory image, kept so Reset can
	// restore architectural state without reallocating. It is shared by
	// every machine of the program (pristineMemory) and never written.
	initMem []int64
	// entryCnt[f][pc] counts the batch loop's straight-line run entries at
	// flat PC pc of function f. Per-opcode and branch counts are
	// reconstructed from these at run exit (flushOpCounts), which is what
	// keeps the batch loop free of per-instruction statistics updates.
	entryCnt [][]int64
	// byCorr records instruction ranges that were pre-counted by a run
	// entry but never executed (a mid-run fault, or the sentinel slot);
	// flushOpCounts subtracts them.
	byCorr []opCorr
	// ev is the interpreter's event value, reused across every emitted
	// instruction, so attaching a tracer never forces a per-run heap
	// allocation.
	ev Event
	// run is the Run value passed to OnRun, and runAddrs the Ld/St address
	// buffer behind run.Addrs, sized to the program's longest run
	// (DecodedProgram.MaxRun) on the first run with a hook.
	run      Run
	runAddrs []int64
	// seg is the run being fed to OnRun: where it started and how many
	// Ld/St addresses it has recorded; the interpreter's event regrouping
	// (feedEvent) also tracks whether one is open, its function and its
	// last PC.
	seg struct {
		open       bool
		df         *ir.DecodedFunc
		start, end int
		na         int
		// taken0 is Stats.TakenBranches when a batch run began.
		taken0 int64
	}
	// pv1 and pv2 are the operands of the batch run's next instruction,
	// resolved before it runs (profOperands), for the profile fold; pd2
	// is the second slot's destination before a fused pair runs.
	pv1, pv2, pd2 int64
	// dtmArmed mirrors whether the attached DTM has a recording pending:
	// the batch tier may skip a landing hook only when nothing is armed
	// and the landing head is statically ineligible (both Lookup and
	// Begin are then proven no-ops).
	dtmArmed bool
	// dtmElig[f][pc] caches the DTM's static head-eligibility predicate
	// (nil when the attached buffer doesn't expose one); dtmEligFor
	// remembers which buffer it was built for.
	dtmElig    [][]bool
	dtmEligFor TraceBuffer
}

// DefaultLimit is the dynamic-instruction budget applied when Machine.Limit
// is zero.
const DefaultLimit int64 = 2_000_000_000

// New prepares a machine for the linked program p with fresh memory.
func New(p *ir.Program) *Machine {
	m := &Machine{
		Prog:   p,
		Interp: interpDefault,
		dec:    p.Decoded(),
	}
	m.initMem = pristineMemory(m.dec)
	m.Mem = append([]int64(nil), m.initMem...)
	m.readOnly = make([]bool, len(p.Objects))
	for _, o := range p.Objects {
		m.readOnly[o.ID] = o.ReadOnly
	}
	m.rstat = make([]*RegionStats, len(p.Regions))
	// One backing array for every function's counters: a machine costs
	// the same few allocations whatever its function count.
	n := 0
	for _, df := range m.dec.Funcs {
		n += len(df.Code)
	}
	cnt := make([]int64, n)
	m.entryCnt = make([][]int64, len(m.dec.Funcs))
	for i, df := range m.dec.Funcs {
		m.entryCnt[i], cnt = cnt[:len(df.Code):len(df.Code)], cnt[len(df.Code):]
	}
	return m
}

type memImageKey struct{}

// pristineMemory returns the program's linked memory image, built once per
// decoded program and shared read-only by all of its machines: New copies
// it into Mem and Reset copies it back, so nothing ever writes it.
func pristineMemory(d *ir.DecodedProgram) []int64 {
	return d.Ext(memImageKey{}, func(d *ir.DecodedProgram) any {
		return d.Prog.InitialMemory()
	}).([]int64)
}

// opCorr is a pre-counted-but-unexecuted instruction range [Lo, Hi] of
// function F; see Machine.byCorr.
type opCorr struct {
	F      ir.FuncID
	Lo, Hi int32
}

// flushOpCounts folds the batch loop's per-run entry counters into
// Stats.ByOp and Stats.Branches. Every execution that enters a run at pc
// executes exactly the instructions [pc, RunEnd[pc]], whose opcode and
// branch counts are precomputed per run head in the decoded form
// (ir.DecodedFunc.RunOps/RunBr) — one table fold per entered run replaces
// the old whole-text carry sweep; byCorr ranges then subtract the
// pre-counted tails of runs that faulted mid-way. Called on every path out
// of runFast, after which the counters are zero again.
func (m *Machine) flushOpCounts() {
	for fid, cnt := range m.entryCnt {
		df := m.dec.Funcs[fid]
		runOps := df.RunOps
		runBr := df.RunBr
		for pc, c := range cnt {
			if c == 0 {
				continue
			}
			cnt[pc] = 0
			for _, oc := range runOps[pc] {
				m.Stats.ByOp[oc.Op] += c * int64(oc.N)
			}
			m.Stats.Branches += c * int64(runBr[pc])
		}
	}
	for _, co := range m.byCorr {
		code := m.dec.Funcs[co.F].Code
		for pc := co.Lo; pc <= co.Hi; pc++ {
			op := code[pc].Op
			m.Stats.ByOp[op]--
			switch op {
			case ir.Beq, ir.Bne, ir.Blt, ir.Bge, ir.Ble, ir.Bgt:
				m.Stats.Branches--
			}
		}
	}
	m.byCorr = m.byCorr[:0]
}

// ensureAddrBase builds the interpreter's per-block byte-address table on
// first use (the predecoded engine derives addresses from flat PCs).
func (m *Machine) ensureAddrBase() {
	if m.addrBase != nil {
		return
	}
	p := m.Prog
	m.addrBase = make([][]int64, len(p.Funcs))
	for _, f := range p.Funcs {
		bases := make([]int64, len(f.Blocks))
		for _, b := range f.Blocks {
			bases[b.ID] = f.InstrAddr(b.ID, 0)
		}
		m.addrBase[f.ID] = bases
	}
}

// regionStat returns the per-region stats row through the flat cache,
// falling back to the map for out-of-table IDs.
func (m *Machine) regionStat(id ir.RegionID) *RegionStats {
	if id >= 0 && int(id) < len(m.rstat) {
		if rs := m.rstat[id]; rs != nil {
			return rs
		}
		rs := m.Stats.region(id)
		m.rstat[id] = rs
		return rs
	}
	return m.Stats.region(id)
}

// Reset returns the machine to its pre-Run architectural state — pristine
// memory, empty call stack, zeroed statistics — while keeping every
// internal buffer (register pools, frame stacks, per-region stat entries)
// allocated for reuse, so repeated Reset+Run cycles on one machine are
// allocation-free in steady state. The attached CRB is external state and
// is deliberately left warm, matching the phased train/ref idiom.
func (m *Machine) Reset() {
	copy(m.Mem, m.initMem)
	for i := range m.frames {
		if m.frames[i].regs != nil {
			m.regPool = append(m.regPool, m.frames[i].regs)
			m.frames[i].regs = nil
		}
	}
	m.frames = m.frames[:0]
	for i := range m.fframes {
		if m.fframes[i].regs != nil {
			m.regPool = append(m.regPool, m.fframes[i].regs)
			m.fframes[i].regs = nil
		}
	}
	m.fframes = m.fframes[:0]
	m.funcMemos = m.funcMemos[:0]
	m.memo.active = false
	m.dtmArmed = false
	if m.DTM != nil {
		// Recorded traces are external warm state like the CRB; only the
		// in-flight recording must die with the aborted execution.
		m.DTM.Abort()
	}
	m.lastInval = 0
	m.byCorr = m.byCorr[:0]
	regions := m.Stats.Regions
	for _, rs := range regions {
		*rs = RegionStats{}
	}
	m.Stats = Stats{Regions: regions}
}

// newRegs draws a zeroed register file of the wanted size from the pool.
// The backing array is always at least ir.RegFileCap long so the batch
// engine can view it as a fixed-size array (only the first want words are
// zeroed — batch-decodable functions never index past their own NumRegs).
func (m *Machine) newRegs(want int) []int64 {
	alloc := want
	if alloc < ir.RegFileCap {
		alloc = ir.RegFileCap
	}
	var regs []int64
	if n := len(m.regPool); n > 0 {
		regs = m.regPool[n-1]
		m.regPool = m.regPool[:n-1]
	}
	if cap(regs) < alloc {
		return make([]int64, alloc)[:want]
	}
	regs = regs[:want]
	for i := range regs {
		regs[i] = 0
	}
	return regs
}

func (m *Machine) pushFrame(f *ir.Func, retDest ir.Reg) *frame {
	regs := m.newRegs(f.NumRegs + 1)
	m.frames = append(m.frames, frame{f: f, regs: regs, retDest: retDest})
	return &m.frames[len(m.frames)-1]
}

func (m *Machine) popFrame() {
	fr := &m.frames[len(m.frames)-1]
	m.regPool = append(m.regPool, fr.regs)
	fr.regs = nil
	m.frames = m.frames[:len(m.frames)-1]
}

// Run executes main with the given arguments and returns its result. It
// runs on the reference interpreter when Interp is set or a tracer is
// attached, and on the predecoded engine otherwise.
func (m *Machine) Run(args ...int64) (int64, error) {
	mainFn := m.Prog.Func(m.Prog.Main)
	if mainFn == nil {
		return 0, errors.New("emu: program has no main")
	}
	if len(args) != mainFn.NumParams {
		return 0, fmt.Errorf("emu: main wants %d args, got %d", mainFn.NumParams, len(args))
	}
	if m.Interp || m.Trace != nil {
		return m.runInterp(mainFn, args)
	}
	return m.runFast(args)
}

// dtmEnter is the trace-memoization landing hook, shared verbatim by both
// engines (their flat PCs agree position-for-position — see engine.go's
// equivalence notes). At a landing it completes any pending recording,
// then chains lookups: every hit applies a trace's outputs, charges one
// dynamic instruction (so an infinite replay chain still terminates at
// the limit, exactly like executed instructions would), and moves pc to
// the trace's landing; the first miss arms a fresh recording and returns.
// Replayed instructions are never executed, so they emit no trace events,
// update no per-op histograms, and cost no cycles — the idealized
// zero-cycle reuse model, same as the CCR scheme's hit path.
// Stats.DynInstrs must be synced before calling and is current on return.
func (m *Machine) dtmEnter(df *ir.DecodedFunc, pc int, regs []int64, limit int64) (int, error) {
	d := m.DTM
	fn := df.Fn.ID
	if pc < 0 || pc >= len(df.Code)-1 {
		// The sentinel slot (or a corrupt PC): about to fault — nothing
		// to look up, and a pending recording must not commit here.
		d.Abort()
		m.dtmArmed = false
		return pc, nil
	}
	d.Complete(fn, int32(pc), regs)
	m.dtmArmed = false
	for {
		tr, ok := d.Lookup(fn, int32(pc), regs)
		if !ok {
			m.dtmArmed = d.Begin(fn, int32(pc), regs)
			return pc, nil
		}
		if m.Stats.DynInstrs >= limit {
			return pc, ErrLimit
		}
		for _, out := range tr.Outputs {
			regs[out.Reg] = out.Val
		}
		m.Stats.DynInstrs++
		m.Stats.DTMHits++
		m.Stats.DTMReusedInstrs += int64(tr.Len)
		pc = int(tr.NextPC)
		if pc < 0 || pc >= len(df.Code)-1 {
			// Backends never record sentinel landings; defensive only.
			d.Abort()
			return pc, nil
		}
	}
}

// headEligible is the optional TraceBuffer fast-path interface: a static
// per-(function, head) predicate that is false only when Lookup and Begin
// at that head are unconditionally no-ops (no stats, no state). The batch
// tier then skips the landing hook at such heads while no recording is
// pending. Chaos wrappers deliberately don't implement it, so injected
// runs keep the hook at every landing.
type headEligible interface {
	EligibleHead(fn ir.FuncID, head int32) bool
}

// ensureDTMElig (re)builds the per-PC eligibility cache for the attached
// trace buffer; a buffer without the fast-path interface leaves the cache
// nil, which disables hook skipping entirely.
func (m *Machine) ensureDTMElig() {
	d := m.DTM
	if m.dtmEligFor == d {
		return
	}
	m.dtmEligFor = d
	m.dtmElig = nil
	he, ok := d.(headEligible)
	if !ok {
		return
	}
	elig := make([][]bool, len(m.dec.Funcs))
	for fid, df := range m.dec.Funcs {
		e := make([]bool, len(df.Code))
		for pc := 0; pc < len(df.Code)-1; pc++ {
			e[pc] = he.EligibleHead(df.Fn.ID, int32(pc))
		}
		elig[fid] = e
	}
	m.dtmElig = elig
}

// dtmInterpEnter adapts dtmEnter to the interpreter's (block, index)
// coordinates: the flat landing PC is BlockPC[b]+idx (valid for
// one-past-block-end fall-through positions too, since blocks are laid
// out contiguously), and an advanced PC maps back through Meta. No-op
// while a region memoization is armed — the careful recording path owns
// execution then, exactly like the fast engine's gate.
func (m *Machine) dtmInterpEnter(limit int64) error {
	if m.memo.active {
		return nil
	}
	fr := &m.frames[len(m.frames)-1]
	df := m.dec.Funcs[fr.f.ID]
	if int(fr.b) >= len(df.BlockPC) {
		m.DTM.Abort()
		return nil
	}
	pc := int(df.BlockPC[fr.b]) + fr.idx
	npc, err := m.dtmEnter(df, pc, fr.regs, limit)
	if err != nil {
		return err
	}
	if npc != pc {
		mt := &df.Meta[npc]
		fr.b, fr.idx = mt.Block, int(mt.Index)
	}
	return nil
}

// runInterp is the legacy block-structured interpreter: the reference
// implementation the predecoded engine is differentially tested against,
// and the engine of every traced run.
// It folds Digest and Profile from, and feeds OnRun by regrouping, its
// own event stream (digestEvent, profileEvent, feedEvent).
func (m *Machine) runInterp(mainFn *ir.Func, args []int64) (int64, error) {
	trace := m.Trace
	if m.Digest != nil {
		trace = Tee(trace, m.digestEvent)
	}
	if m.Profile != nil {
		trace = Tee(trace, m.profileEvent)
	}
	if m.OnRun == nil {
		return m.interpLoop(mainFn, args, trace)
	}
	m.prepareFeed()
	sg := &m.seg
	sg.open = false
	res, err := m.interpLoop(mainFn, args, Tee(trace, m.feedEvent))
	if sg.open {
		// A fault or the limit cut the run: flush what executed.
		sg.open = false
		m.feedRun(sg.df, sg.end, false)
	}
	return res, err
}

// profileEvent folds one interpreter event into the attached profile.
func (m *Machine) profileEvent(ev *Event) {
	m.Profile.Fold(ev.PC, ev.Val1, ev.Val2, ev.Taken, ev.Regs)
}

// feedEvent regroups the interpreter's event stream into runs for OnRun:
// the first event opens a run, Ld/St addresses are collected, and the
// run's control transfer feeds it. runInterp flushes a run a fault or the
// limit left open.
func (m *Machine) feedEvent(ev *Event) {
	sg := &m.seg
	df := m.dec.Funcs[ev.Func.ID]
	pc := int(df.PCFor(ev.Block, ev.Index))
	if !sg.open {
		sg.open, sg.df, sg.start, sg.na = true, df, pc, 0
	}
	sg.end = pc
	switch ev.Instr.Op {
	case ir.Ld, ir.St:
		m.noteAddr(ev.Addr)
	case ir.Reuse:
		m.run.ReuseHit, m.run.ReuseOut, m.run.ReusedInstrs = ev.ReuseHit, ev.ReuseOut, ev.ReusedInstrs
		fallthrough
	case ir.Jmp, ir.Beq, ir.Bne, ir.Blt, ir.Bge, ir.Ble, ir.Bgt, ir.Call, ir.Ret:
		sg.open = false
		m.feedRun(df, pc, ev.Taken)
	}
}

// prepareFeed sizes the run-address buffer for an attached OnRun hook:
// no run records more addresses than the program's longest run has
// instructions.
func (m *Machine) prepareFeed() {
	if len(m.runAddrs) < m.dec.MaxRun {
		m.runAddrs = make([]int64, m.dec.MaxRun)
	}
}

// noteAddr records the current run's next Ld/St address.
func (m *Machine) noteAddr(a int64) {
	m.runAddrs[m.seg.na] = a
	m.seg.na++
}

// feedRun passes the current run [seg.start, end] of df, whose seg.na
// Ld/St addresses lead runAddrs, to OnRun. When end is a Reuse the caller
// has set the run's reuse facts.
func (m *Machine) feedRun(df *ir.DecodedFunc, end int, taken bool) {
	r := &m.run
	r.Fn, r.Start, r.End = df.Fn.ID, int32(m.seg.start), int32(end)
	r.Addrs = m.runAddrs[:m.seg.na]
	r.Taken = taken
	m.OnRun(r)
}

// feedPrefix feeds the part of the current run before pc, where a fault
// or the instruction limit cut it, if any of it executed.
func (m *Machine) feedPrefix(df *ir.DecodedFunc, pc int) {
	if m.OnRun != nil && pc > m.seg.start {
		m.feedRun(df, pc-1, false)
	}
}

// interpLoop is runInterp's execution loop, emitting events to trace.
func (m *Machine) interpLoop(mainFn *ir.Func, args []int64, trace Tracer) (int64, error) {
	m.ensureAddrBase()
	fr := m.pushFrame(mainFn, ir.NoReg)
	for i, a := range args {
		fr.regs[i+1] = a
	}
	limit := m.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}

	ev := &m.ev
	if m.DTM != nil {
		// Program entry is a landing too (the fast engine's tier dispatch
		// fires there before the first instruction).
		if err := m.dtmInterpEnter(limit); err != nil {
			return 0, err
		}
	}
	for len(m.frames) > 0 {
		fr := &m.frames[len(m.frames)-1]
		blk := fr.f.Blocks[fr.b]
		if fr.idx >= len(blk.Instrs) {
			// Fall through to the next block.
			fr.b++
			fr.idx = 0
			if int(fr.b) >= len(fr.f.Blocks) {
				return 0, &Fault{fr.f.Name, fr.b, 0, "fell off end of function"}
			}
			continue
		}
		in := &blk.Instrs[fr.idx]
		if m.Stats.DynInstrs >= limit {
			return 0, ErrLimit
		}
		m.Stats.DynInstrs++
		m.Stats.ByOp[in.Op]++

		regs := fr.regs
		var v1, v2, result, addr int64
		taken := false
		nextB, nextI := fr.b, fr.idx+1

		if in.Src1 != ir.NoReg {
			v1 = regs[in.Src1]
		}
		if in.Src2 != ir.NoReg {
			v2 = regs[in.Src2]
		} else {
			v2 = in.Imm
		}

		memoActive := m.memo.active
		if memoActive {
			// Record first-use inputs before any definition below.
			ok := true
			switch in.Op {
			case ir.Call:
				for _, a := range in.Args {
					ok = ok && m.memo.noteUse(a, regs[a])
				}
			default:
				if in.Src1 != ir.NoReg {
					ok = m.memo.noteUse(in.Src1, v1)
				}
				if ok && in.Src2 != ir.NoReg {
					ok = m.memo.noteUse(in.Src2, v2)
				}
			}
			if !ok {
				m.abortMemo()
				memoActive = false
			}
		}

		switch in.Op {
		case ir.Nop:
		case ir.Mov:
			result = v1
			regs[in.Dest] = result
		case ir.MovI:
			result = in.Imm
			regs[in.Dest] = result
		case ir.Lea:
			result = m.Prog.Objects[in.Mem].Base + in.Imm
			if in.Src1 != ir.NoReg {
				result += v1
			}
			regs[in.Dest] = result
		case ir.Add:
			result = v1 + v2
			regs[in.Dest] = result
		case ir.Sub:
			result = v1 - v2
			regs[in.Dest] = result
		case ir.Mul:
			result = v1 * v2
			regs[in.Dest] = result
		case ir.Div:
			if v2 != 0 {
				result = v1 / v2
			}
			regs[in.Dest] = result
		case ir.Rem:
			if v2 != 0 {
				result = v1 % v2
			}
			regs[in.Dest] = result
		case ir.And:
			result = v1 & v2
			regs[in.Dest] = result
		case ir.Or:
			result = v1 | v2
			regs[in.Dest] = result
		case ir.Xor:
			result = v1 ^ v2
			regs[in.Dest] = result
		case ir.Shl:
			result = v1 << (uint64(v2) & 63)
			regs[in.Dest] = result
		case ir.Shr:
			result = int64(uint64(v1) >> (uint64(v2) & 63))
			regs[in.Dest] = result
		case ir.Sra:
			result = v1 >> (uint64(v2) & 63)
			regs[in.Dest] = result
		case ir.Slt:
			result = b2i(v1 < v2)
			regs[in.Dest] = result
		case ir.Sle:
			result = b2i(v1 <= v2)
			regs[in.Dest] = result
		case ir.Seq:
			result = b2i(v1 == v2)
			regs[in.Dest] = result
		case ir.Sne:
			result = b2i(v1 != v2)
			regs[in.Dest] = result
		case ir.Ld:
			addr = v1 + in.Imm
			if addr < 0 || addr >= int64(len(m.Mem)) {
				return 0, &Fault{fr.f.Name, fr.b, fr.idx, fmt.Sprintf("load address %d out of range", addr)}
			}
			if in.Mem != ir.NoMem {
				if o := m.Prog.Objects[in.Mem]; addr < o.Base || addr >= o.Base+o.Size {
					return 0, &Fault{fr.f.Name, fr.b, fr.idx,
						fmt.Sprintf("load address %d outside hinted object %s [%d,%d)", addr, o.Name, o.Base, o.Base+o.Size)}
				}
			}
			result = m.Mem[addr]
			regs[in.Dest] = result
			if memoActive {
				// Loads of writable objects make the instance depend on
				// memory state; static (read-only) data needs no
				// validation. A load with unknown provenance cannot be
				// inside a compiler-formed region — abort defensively.
				switch {
				case in.Mem == ir.NoMem:
					m.abortMemo()
					memoActive = false
				case !m.readOnly[in.Mem]:
					m.memo.usesMem = true
				}
			}
		case ir.St:
			addr = v1 + in.Imm
			if addr < 0 || addr >= int64(len(m.Mem)) {
				return 0, &Fault{fr.f.Name, fr.b, fr.idx, fmt.Sprintf("store address %d out of range", addr)}
			}
			if in.Mem != ir.NoMem {
				if o := m.Prog.Objects[in.Mem]; addr < o.Base || addr >= o.Base+o.Size {
					return 0, &Fault{fr.f.Name, fr.b, fr.idx,
						fmt.Sprintf("store address %d outside hinted object %s [%d,%d)", addr, o.Name, o.Base, o.Base+o.Size)}
				}
			}
			m.Mem[addr] = v2
			if m.DTM != nil {
				m.DTM.Store(in.Mem)
			}
			if memoActive {
				// Regions never contain stores; defensive abort.
				m.abortMemo()
				memoActive = false
			}
			if len(m.funcMemos) > 0 {
				// Pure-callee selection forbids this; never record a
				// result that observed a store.
				m.dropFuncMemos()
			}
		case ir.Jmp:
			taken = true
			nextB, nextI = in.Target, 0
		case ir.Beq, ir.Bne, ir.Blt, ir.Bge, ir.Ble, ir.Bgt:
			switch in.Op {
			case ir.Beq:
				taken = v1 == v2
			case ir.Bne:
				taken = v1 != v2
			case ir.Blt:
				taken = v1 < v2
			case ir.Bge:
				taken = v1 >= v2
			case ir.Ble:
				taken = v1 <= v2
			case ir.Bgt:
				taken = v1 > v2
			}
			m.Stats.Branches++
			if taken {
				m.Stats.TakenBranches++
				nextB, nextI = in.Target, 0
			}
		case ir.Call:
			if memoActive {
				m.abortMemo()
				memoActive = false
			}
			callee := m.Prog.Func(in.Callee)
			origB, origIdx := fr.b, fr.idx
			fr.b, fr.idx = nextB, nextI // return point
			nf := m.pushFrame(callee, in.Dest)
			// fr may be stale after pushFrame (slice growth); reload.
			caller := &m.frames[len(m.frames)-2]
			for i, a := range in.Args {
				nf.regs[i+1] = caller.regs[a]
			}
			if trace != nil {
				m.emit(trace, ev, caller.f, origB, origIdx, in, v1, v2, 0, 0,
					true, m.addrBase[callee.ID][0])
			}
			if m.DTM != nil {
				if err := m.dtmInterpEnter(limit); err != nil {
					return 0, err
				}
			}
			continue
		case ir.Ret:
			if memoActive {
				m.abortMemo()
				memoActive = false
			}
			retVal := in.Imm
			if in.Src1 != ir.NoReg {
				retVal = v1
			}
			if trace != nil {
				tpc := int64(0)
				if len(m.frames) > 1 {
					p := &m.frames[len(m.frames)-2]
					tpc = m.pcOf(p.f, p.b, p.idx)
				}
				m.emit(trace, ev, fr.f, blk.ID, fr.idx, in, v1, v2, 0, retVal, true, tpc)
			}
			dest := fr.retDest
			m.popFrame()
			if len(m.funcMemos) > 0 {
				m.commitFuncMemos(retVal, len(m.frames))
			}
			if len(m.frames) == 0 {
				return retVal, nil
			}
			if dest != ir.NoReg {
				m.frames[len(m.frames)-1].regs[dest] = retVal
			}
			if m.DTM != nil {
				if err := m.dtmInterpEnter(limit); err != nil {
					return 0, err
				}
			}
			continue
		case ir.Reuse:
			hit, rout, reused := m.execReuse(in.Region, regs, fr.f.NumRegs, len(m.frames))
			taken = hit
			if hit {
				nextB, nextI = in.Target, 0
			}
			if trace != nil {
				tpc := m.addrBase[fr.f.ID][in.Target]
				if !hit {
					tpc = m.pcAfter(fr.f, fr.b, fr.idx)
				}
				pc := m.pcOf(fr.f, fr.b, fr.idx)
				ev.Func, ev.Block, ev.Index, ev.Instr = fr.f, fr.b, fr.idx, in
				ev.PC = pc
				ev.Regs = fr.regs
				ev.Val1, ev.Val2, ev.Addr, ev.Result = 0, 0, 0, 0
				ev.Taken, ev.TargetPC = hit, tpc
				ev.ReuseHit, ev.ReuseOut, ev.ReusedInstrs = hit, rout, reused
				ev.InvalCount = 0
				trace(ev)
			}
			fr.b, fr.idx = nextB, nextI
			if m.DTM != nil {
				if err := m.dtmInterpEnter(limit); err != nil {
					return 0, err
				}
			}
			continue
		case ir.Inval:
			m.Stats.Invalidations++
			m.lastInval = 0
			if m.CRB != nil {
				m.lastInval = m.CRB.Invalidate(in.Mem)
			}
			if memoActive {
				m.abortMemo()
				memoActive = false
			}
			if len(m.funcMemos) > 0 {
				m.dropFuncMemos()
			}
		default:
			return 0, &Fault{fr.f.Name, fr.b, fr.idx, fmt.Sprintf("invalid opcode %d", in.Op)}
		}

		if memoActive {
			m.memoStep(fr.f, in, result, nextB, nextI)
		}

		if trace != nil {
			tpc := int64(0)
			if in.Op.IsBranch() {
				tpc = m.pcOf(fr.f, nextB, nextI)
			}
			m.emit(trace, ev, fr.f, fr.b, fr.idx, in, v1, v2, addr, result, taken, tpc)
		}
		fr.b, fr.idx = nextB, nextI
		if m.DTM != nil && in.Op.IsBranch() {
			// Jumps and conditional branches (either direction) end a
			// straight-line run: their successor is a landing.
			if err := m.dtmInterpEnter(limit); err != nil {
				return 0, err
			}
		}
	}
	return 0, errors.New("emu: no frames")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) pcOf(f *ir.Func, b ir.BlockID, idx int) int64 {
	if int(b) >= len(m.addrBase[f.ID]) {
		return 0
	}
	return m.addrBase[f.ID][b] + int64(idx)*4
}

// pcAfter returns the address of the instruction after (b, idx), following
// fall-through.
func (m *Machine) pcAfter(f *ir.Func, b ir.BlockID, idx int) int64 {
	return m.pcOf(f, b, idx) + 4
}

func (m *Machine) emit(trace Tracer, ev *Event, f *ir.Func, b ir.BlockID, idx int,
	in *ir.Instr, v1, v2, addr, result int64, taken bool, tpc int64) {
	// Assigned field by field, like emitFlat's event.
	ev.Func, ev.Block, ev.Index, ev.Instr = f, b, idx, in
	ev.PC = m.pcOf(f, b, idx)
	ev.Regs = m.frames[len(m.frames)-1].regs
	ev.Val1, ev.Val2, ev.Addr, ev.Result = v1, v2, addr, result
	ev.Taken, ev.TargetPC = taken, tpc
	ev.ReuseHit, ev.ReuseOut, ev.ReusedInstrs = false, 0, 0
	ev.InvalCount = 0
	if in.Op == ir.Inval {
		ev.InvalCount = m.lastInval
	}
	trace(ev)
}

// execReuse implements the reuse instruction: CRB lookup, architectural
// update on a hit, or entry into memoization mode on a miss. Function-
// level regions record through a pending-call marker instead of the
// region memoization mode. regs is the executing frame's register file,
// numRegs its function's register count, and depth the current call-stack
// depth (for function-level markers). Shared by both engines.
func (m *Machine) execReuse(id ir.RegionID, regs []int64, numRegs, depth int) (hit bool, rout, reused int) {
	region := m.Prog.Region(id)
	rs := m.regionStat(id)
	if m.memo.active {
		// Control reached another region's inception while memoizing;
		// regions are disjoint so this means an unannotated escape.
		m.abortMemo()
	}
	if m.CRB == nil {
		m.Stats.ReuseMisses++
		rs.Misses++
		return false, 0, 0
	}
	ci, ok := m.CRB.Lookup(id, regs)
	if ok {
		for _, out := range ci.Outputs {
			regs[out.Reg] = out.Val
		}
		m.Stats.ReuseHits++
		m.Stats.ReusedInstrs += int64(ci.ReplacedInstrs)
		rs.Hits++
		rs.ReusedInstrs += int64(ci.ReplacedInstrs)
		return true, len(ci.Outputs), ci.ReplacedInstrs
	}
	m.Stats.ReuseMisses++
	rs.Misses++
	if region.Kind == ir.FuncLevel {
		n := len(m.funcMemos)
		if n < cap(m.funcMemos) {
			m.funcMemos = m.funcMemos[:n+1]
		} else {
			m.funcMemos = append(m.funcMemos, funcMemo{})
		}
		fm := &m.funcMemos[n]
		fm.region, fm.depth, fm.startDyn = region, depth, m.Stats.DynInstrs
		fm.inputs = fm.inputs[:0]
		for _, r := range region.Inputs {
			fm.inputs = append(fm.inputs, crb.RegVal{Reg: r, Val: regs[r]})
		}
		return false, 0, 0
	}
	m.memo.reset(region, numRegs)
	return false, 0, 0
}

// commitFuncMemos commits any pending function-level recording whose call
// has just returned (the frame stack is back at the marker's depth).
func (m *Machine) commitFuncMemos(retVal int64, depth int) {
	for len(m.funcMemos) > 0 {
		fm := &m.funcMemos[len(m.funcMemos)-1]
		if depth != fm.depth {
			return
		}
		rs := m.regionStat(fm.region.ID)
		m.funcOuts = m.funcOuts[:0]
		for _, out := range fm.region.Outputs {
			m.funcOuts = append(m.funcOuts, crb.RegVal{Reg: out, Val: retVal})
		}
		inst := crb.Instance{
			UsesMem:        len(fm.region.MemObjects) > 0,
			Inputs:         fm.inputs,
			Outputs:        m.funcOuts,
			ReplacedInstrs: int(m.Stats.DynInstrs - fm.startDyn),
		}
		if m.CRB.Commit(fm.region.ID, inst) {
			rs.Records++
		}
		m.funcMemos = m.funcMemos[:len(m.funcMemos)-1]
	}
}

// dropFuncMemos abandons pending function-level recordings (defensive:
// selection guarantees pure callees, so stores should never occur while a
// marker is pending).
func (m *Machine) dropFuncMemos() {
	for i := range m.funcMemos {
		m.Stats.MemoAborts++
		m.regionStat(m.funcMemos[i].region.ID).Aborts++
	}
	m.funcMemos = m.funcMemos[:0]
}

// memoStep performs the per-instruction memoization bookkeeping after the
// instruction's architectural effects: definition recording, and commit or
// abort depending on where control flows next. (nextB, nextI) is the
// pre-normalized successor position: (Target, 0) for a taken branch, the
// same-block successor slot otherwise. Shared by both engines — the
// predecoded engine derives the pair from the instruction's CFG position,
// so the two engines take bit-identical commit/abort decisions.
func (m *Machine) memoStep(f *ir.Func, in *ir.Instr, result int64, nextB ir.BlockID, nextI int) {
	mm := &m.memo
	mm.count++
	if d := in.Def(); d != ir.NoReg {
		if !mm.noteDef(d, result, in.Attr.Has(AttrLiveOutAlias)) {
			m.abortMemo()
			return
		}
	}
	region := mm.region
	// Determine whether control stays inside the region.
	if int(nextB) >= len(f.Blocks) {
		m.abortMemo()
		return
	}
	nb := f.Blocks[nextB]
	var nextInstr *ir.Instr
	if nextI < len(nb.Instrs) {
		nextInstr = &nb.Instrs[nextI]
	} else {
		// Fall-through to the next block's first instruction.
		if int(nextB)+1 < len(f.Blocks) && len(f.Blocks[nextB+1].Instrs) > 0 {
			nextInstr = &f.Blocks[nextB+1].Instrs[0]
			nextB, nextI = nextB+1, 0
		}
	}
	if nextInstr != nil && nextInstr.Region == region.ID && nextInstr.Op != ir.Reuse {
		return // still inside the region
	}
	// Control is leaving the region: commit at a marked finish point
	// flowing to the continuation, abort on any other escape.
	if in.Attr.Has(AttrRegionEndAlias) && nextB == region.Continuation && nextI == 0 {
		m.commitMemo()
		return
	}
	m.abortMemo()
}

// Attribute aliases keep the hot loop free of package-qualified constants.
const (
	AttrLiveOutAlias   = ir.AttrLiveOut
	AttrRegionEndAlias = ir.AttrRegionEnd
)

func (m *Machine) commitMemo() {
	mm := &m.memo
	rs := m.regionStat(mm.region.ID)
	// The CRB copies the banks, so the recording's scratch goes as is.
	inst := crb.Instance{
		UsesMem:        mm.usesMem,
		Inputs:         mm.inputs,
		Outputs:        mm.outputs,
		ReplacedInstrs: mm.count,
	}
	if m.CRB.Commit(mm.region.ID, inst) {
		rs.Records++
	}
	mm.active = false
}

func (m *Machine) abortMemo() {
	if !m.memo.active {
		return
	}
	m.Stats.MemoAborts++
	m.regionStat(m.memo.region.ID).Aborts++
	m.memo.active = false
}
