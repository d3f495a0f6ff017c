// Package core is the top-level API of the Compiler-directed Computation
// Reuse (CCR) framework — the paper's primary contribution assembled into a
// usable pipeline:
//
//	compile:  alias analysis → value profiling (RPS) → RCR formation →
//	          CCR transformation (reuse/invalidate insertion)
//	simulate: functional emulation against a Computation Reuse Buffer,
//	          driving the cycle-level 6-issue timing model
//
// A typical use:
//
//	cr, _ := core.Compile(prog, trainArgs, core.DefaultOptions())
//	base, _ := core.Simulate(prog, nil, cfg.Uarch, refArgs)
//	ccr, _ := core.Simulate(cr.Prog, &cfg.CRB, cfg.Uarch, refArgs)
//	fmt.Println(core.Speedup(base, ccr))
package core

import (
	"fmt"
	"strconv"

	"ccr/internal/alias"
	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/obsv"
	"ccr/internal/oracle"
	"ccr/internal/region"
	"ccr/internal/reuse"
	"ccr/internal/telemetry"
	"ccr/internal/uarch"
	"ccr/internal/vprof"
	"ccr/internal/xform"
)

// Options configures the whole pipeline.
type Options struct {
	Region region.Options
	CRB    crb.Config
	// DTM is the trace-buffer geometry used by the dtm/both reuse schemes
	// (see internal/reuse); irrelevant — and excluded from cache keys —
	// when only the CCR scheme runs.
	DTM   reuse.DTMConfig
	Uarch uarch.Config
	// Limit bounds each emulated run's dynamic instructions (0 = default).
	Limit int64
}

// DefaultOptions returns the paper's configuration: §4.4 heuristics, a
// 128-entry × 8-instance direct-mapped CRB and the §5.1 machine, plus the
// default trace-buffer geometry for the DTM scheme.
func DefaultOptions() Options {
	return Options{
		Region: region.DefaultOptions(),
		CRB:    crb.DefaultConfig(),
		DTM:    reuse.DefaultDTMConfig(),
		Uarch:  uarch.DefaultConfig(),
	}
}

// CompileResult is the output of the CCR compilation pipeline.
type CompileResult struct {
	// Prog is the transformed program: reuse instructions at region
	// inception points, annotated live-outs and region ends, and
	// invalidate instructions after relevant stores.
	Prog *ir.Program
	// Plans are the selected regions on the base program.
	Plans []*region.Plan
	// Profile is the RPS profile gathered on the training run.
	Profile *vprof.Profile
	// Alias is the whole-program memory analysis.
	Alias *alias.Result
	// TrainResult is the architectural result of the profiling run.
	TrainResult int64
}

// Compile runs the CCR compiler support on base: alias analysis and
// annotation, value profiling with the given training arguments, region
// formation, and transformation. base is annotated in place with alias
// attributes; the returned Prog is an independent transformed clone.
func Compile(base *ir.Program, trainArgs []int64, opts Options) (*CompileResult, error) {
	return CompileWith(base, Prepare(base), trainArgs, opts)
}

// Prepare runs the whole-program alias analysis and writes its annotations
// into base. It is the only pipeline step that mutates the base program, so
// callers sharing one program across goroutines can Prepare it once up
// front and then compile and simulate it concurrently through CompileWith
// and Simulate, which only read it.
func Prepare(base *ir.Program) *alias.Result {
	ar := alias.Analyze(base)
	ar.Annotate()
	return ar
}

// CompileWith is Compile with the alias analysis already performed (see
// Prepare); it does not mutate base. It is ProfileRun followed by
// CompileFrom.
func CompileWith(base *ir.Program, ar *alias.Result, trainArgs []int64, opts Options) (*CompileResult, error) {
	prof, trainResult, err := ProfileRun(base, trainArgs, opts.Limit)
	if err != nil {
		return nil, fmt.Errorf("core: profiling run: %w", err)
	}
	return CompileFrom(base, ar, prof, trainResult, opts.Region)
}

// CompileFrom forms regions under ro from a finished profile of base and
// transforms base. The profile and the training result depend only on
// base, the training input and the run limit, so one ProfileRun serves
// every set of region options. CompileFrom reads prof, ar and base and
// writes none of them: any number of calls may share them concurrently.
func CompileFrom(base *ir.Program, ar *alias.Result, prof *vprof.Profile, trainResult int64, ro region.Options) (*CompileResult, error) {
	plans := region.Form(base, prof, ar, ro)
	prog, err := xform.Transform(base, plans)
	if err != nil {
		return nil, err
	}
	return &CompileResult{
		Prog:        prog,
		Plans:       plans,
		Profile:     prof,
		Alias:       ar,
		TrainResult: trainResult,
	}, nil
}

// ProfileRun executes base functionally under the RPS profiler and returns
// the finished profile and the program result. The profiler is attached
// as the machine's inline profile fold, so the run stays on the engine's
// batch tier; it builds the profile the event-fed reference
// (vprof.Profiler.Tracer) would.
func ProfileRun(base *ir.Program, args []int64, limit int64) (*vprof.Profile, int64, error) {
	profiler := vprof.NewProfiler(base)
	rg := rigsOf(base)
	m := rg.machine(base)
	m.Profile = profiler
	m.Limit = limit
	res, err := m.Run(args...)
	rg.putMachine(m)
	if err != nil {
		return nil, 0, err
	}
	return profiler.Finish(), res, nil
}

// SimResult is one timed run.
type SimResult struct {
	Result int64
	Cycles int64
	Emu    emu.Stats
	Uarch  uarch.Stats
	CRB    *crb.Stats // nil when run without a CRB
	// DTM and DTMHeads report the trace-memoization buffer of a dtm/both
	// run: flat counters and the per-head reuse contributions the
	// decanting figures decompose. Both nil otherwise.
	DTM      *reuse.Stats
	DTMHeads []reuse.HeadStat
}

// Telemetry bundles the opt-in observability attachments of one simulated
// run. Both fields are optional; a nil Telemetry (or nil fields)
// reproduces the uninstrumented fast path exactly.
type Telemetry struct {
	// Metrics, when non-nil, is attached to the CRB as its sink and
	// accumulates cause-attributed per-region counters.
	Metrics *telemetry.Metrics
	// Spans, when non-nil, receives one span per reuse-relevant dynamic
	// event (see spanTracer), stamped with the timing model's cycle count.
	Spans *obsv.SpanLog
}

// Simulate executes prog with the cycle-level timing model. A non-nil
// crbCfg attaches a Computation Reuse Buffer, enabling the CCR extensions;
// with nil, reuse instructions (if any) always miss.
func Simulate(prog *ir.Program, crbCfg *crb.Config, ucfg uarch.Config, args []int64, limit int64) (*SimResult, error) {
	return SimulateReuse(prog, reuseConfigOf(crbCfg), ucfg, args, limit, nil)
}

// reuseConfigOf maps the legacy optional-CRB calling convention onto the
// scheme seam: nil means no reuse hardware at all (scheme off), non-nil
// means the classic CCR configuration.
func reuseConfigOf(crbCfg *crb.Config) reuse.Config {
	if crbCfg == nil {
		return reuse.Config{Scheme: reuse.Off}
	}
	return reuse.CCR(*crbCfg)
}

// attachReuse builds and attaches the reuse backends rc selects to m,
// wiring the telemetry sink when present. Either return may be nil.
func attachReuse(m *emu.Machine, prog *ir.Program, rc reuse.Config, tel *Telemetry) (*crb.CRB, *reuse.DTM) {
	var buf *crb.CRB
	var dtm *reuse.DTM
	if rc.Scheme.UsesCCR() {
		buf = crb.New(rc.CRB, prog)
		if tel != nil && tel.Metrics != nil {
			buf.SetSink(tel.Metrics)
		}
		m.CRB = buf
	}
	if rc.Scheme.UsesDTM() {
		dtm = reuse.NewDTM(rc.DTM, prog)
		if tel != nil && tel.Metrics != nil {
			dtm.SetSink(tel.Metrics)
		}
		m.DTM = dtm
	}
	return buf, dtm
}

// SimulateReuse executes prog with the cycle-level timing model under an
// arbitrary reuse scheme: a CRB for ccr, a trace-memoization buffer for
// dtm, both side by side for both, and neither for off. It is the
// scheme-generic core that Simulate wraps.
func SimulateReuse(prog *ir.Program, rc reuse.Config, ucfg uarch.Config, args []int64, limit int64, tel *Telemetry) (*SimResult, error) {
	r, _, err := simulate(prog, rc, ucfg, args, limit, tel, false)
	return r, err
}

// SimulateReuseDigest is SimulateReuse that also returns the run's oracle
// digest, folded in the same execution: one machine carries both the
// timing model and the collector. The digest is folded on the batch tier
// beside the run feed and changes none of the runs the timing model
// sees, so the SimResult equals SimulateReuse's and the digest equals
// DigestRunReuse's.
func SimulateReuseDigest(prog *ir.Program, rc reuse.Config, ucfg uarch.Config, args []int64, limit int64, tel *Telemetry) (*SimResult, oracle.Digest, error) {
	return simulate(prog, rc, ucfg, args, limit, tel, true)
}

// simulate is the timed run behind SimulateReuse and SimulateReuseDigest,
// on a machine and a timing model borrowed from prog's rigs.
func simulate(prog *ir.Program, rc reuse.Config, ucfg uarch.Config, args []int64, limit int64, tel *Telemetry, digest bool) (*SimResult, oracle.Digest, error) {
	rg := rigsOf(prog)
	m, sim := rg.machine(prog), rg.simulator(ucfg, prog)
	r, d, err := simulateOn(m, sim, rc, args, limit, tel, digest)
	rg.putMachine(m)
	rg.putSimulator(ucfg, sim)
	return r, d, err
}

// simulateOn times one run of m's program on m and sim, both in the state
// emu.New and uarch.NewSimulator build; with digest set, an oracle
// collector rides on the same machine.
func simulateOn(m *emu.Machine, sim *uarch.Simulator, rc reuse.Config, args []int64, limit int64, tel *Telemetry, digest bool) (*SimResult, oracle.Digest, error) {
	m.Limit = limit
	buf, dtm := attachReuse(m, m.Prog, rc, tel)
	if tel != nil && tel.Spans != nil {
		m.Trace = spanTracer(tel.Spans, sim.CycleCount)
	}
	sim.Attach(m)
	var col *oracle.Collector
	if digest {
		col = new(oracle.Collector)
		col.Attach(m)
	}
	res, err := m.Run(args...)
	if err != nil {
		return nil, oracle.Digest{}, err
	}
	out := &SimResult{
		Result: res,
		Emu:    m.Stats,
		Uarch:  sim.Stats(),
	}
	out.Cycles = out.Uarch.Cycles
	if buf != nil {
		st := buf.Stats()
		out.CRB = &st
	}
	if dtm != nil {
		st := dtm.Stats()
		out.DTM = &st
		out.DTMHeads = dtm.HeadStats()
	}
	var d oracle.Digest
	if col != nil {
		d = col.Finish(res, m.Mem)
	}
	return out, d, nil
}

// spanTracer streams a run's reuse-relevant events to l, one span each,
// stamped with clock: a reuse miss is an "enter" instant (the region body
// executes), a reuse hit a "hit" span lasting the instructions it
// eliminated, and a computation-invalidate an "inval" instant whose N is
// the instances it killed. Slot is the lane ("region N" or "mem N") and
// Cell the instruction's pc. Any other instruction costs one opcode
// compare.
func spanTracer(l *obsv.SpanLog, clock func() int64) emu.Tracer {
	return func(ev *emu.Event) {
		var s obsv.Span
		switch ev.Instr.Op {
		case ir.Reuse:
			s.Phase, s.Slot = "enter", fmt.Sprintf("region %d", ev.Instr.Region)
			if ev.ReuseHit {
				s.Phase = "hit"
				s.DurUS, s.N = int64(ev.ReusedInstrs), int64(ev.ReusedInstrs)
			}
		case ir.Inval:
			s.Phase, s.Slot = "inval", fmt.Sprintf("mem %d", ev.Instr.Mem)
			s.N = int64(ev.InvalCount)
		default:
			return
		}
		s.Cell, s.Seq, s.StartUS = strconv.FormatInt(ev.PC, 10), -1, clock()
		l.Emit(s)
	}
}

// RunFunctional executes prog without timing, optionally with a CRB —
// used by correctness tests and the reuse-potential study.
func RunFunctional(prog *ir.Program, crbCfg *crb.Config, args []int64, limit int64) (*SimResult, error) {
	return RunFunctionalReuse(prog, reuseConfigOf(crbCfg), args, limit)
}

// RunFunctionalReuse is RunFunctional generalized over the reuse scheme.
func RunFunctionalReuse(prog *ir.Program, rc reuse.Config, args []int64, limit int64) (*SimResult, error) {
	rg := rigsOf(prog)
	m := rg.machine(prog)
	r, err := functionalOn(m, rc, args, limit)
	rg.putMachine(m)
	return r, err
}

// functionalOn runs m's program once on m, in the state emu.New builds.
func functionalOn(m *emu.Machine, rc reuse.Config, args []int64, limit int64) (*SimResult, error) {
	m.Limit = limit
	buf, dtm := attachReuse(m, m.Prog, rc, nil)
	res, err := m.Run(args...)
	if err != nil {
		return nil, err
	}
	out := &SimResult{Result: res, Emu: m.Stats}
	if buf != nil {
		st := buf.Stats()
		out.CRB = &st
	}
	if dtm != nil {
		st := dtm.Stats()
		out.DTM = &st
		out.DTMHeads = dtm.HeadStats()
	}
	return out, nil
}

// DigestRun executes prog functionally and returns the architectural
// digest of the run (see internal/oracle): final result, final memory
// image, and the store/return-value streams. A non-nil crbCfg attaches a
// CRB; digesting a base run with nil and a CCR run with a configuration,
// then oracle.Compare-ing the two, checks the paper's §3.1 transparency
// contract for that benchmark, input and CRB geometry.
func DigestRun(prog *ir.Program, crbCfg *crb.Config, args []int64, limit int64) (oracle.Digest, error) {
	return digestRun(prog, reuseConfigOf(crbCfg), args, limit, nil)
}

// DigestRunEngine is DigestRun with the execution engine pinned: interp
// true forces the legacy block-structured interpreter, false the
// predecoded engine, regardless of the CCR_ENGINE environment default.
// Comparing the two digests for one (program, config, input) point is the
// engine-equivalence gate (TestEngineDifferential, ci's sweep).
func DigestRunEngine(prog *ir.Program, crbCfg *crb.Config, args []int64, limit int64, interp bool) (oracle.Digest, error) {
	return DigestRunReuseEngine(prog, reuseConfigOf(crbCfg), args, limit, interp)
}

// DigestRunReuse is DigestRun generalized over the reuse scheme: it
// digests a run with whichever backends rc selects attached, so the
// transparency contract can be checked for ccr, dtm and both alike
// against a scheme-off base digest of the same program and input.
func DigestRunReuse(prog *ir.Program, rc reuse.Config, args []int64, limit int64) (oracle.Digest, error) {
	return digestRun(prog, rc, args, limit, nil)
}

// DigestRunReuseEngine is DigestRunReuse with the execution engine pinned
// (see DigestRunEngine).
func DigestRunReuseEngine(prog *ir.Program, rc reuse.Config, args []int64, limit int64, interp bool) (oracle.Digest, error) {
	return digestRun(prog, rc, args, limit, &interp)
}

// digestRun digests one run on a machine borrowed from prog's rigs, on the
// engine interp pins when non-nil.
func digestRun(prog *ir.Program, rc reuse.Config, args []int64, limit int64, interp *bool) (oracle.Digest, error) {
	rg := rigsOf(prog)
	m := rg.machine(prog)
	if interp != nil {
		m.Interp = *interp
	}
	d, err := digestOn(m, rc, args, limit)
	rg.putMachine(m)
	return d, err
}

// digestOn digests one run of m's program on m, in the state emu.New
// builds apart from the engine choice.
func digestOn(m *emu.Machine, rc reuse.Config, args []int64, limit int64) (oracle.Digest, error) {
	m.Limit = limit
	attachReuse(m, m.Prog, rc, nil)
	var col oracle.Collector
	col.Attach(m)
	res, err := m.Run(args...)
	if err != nil {
		return oracle.Digest{}, err
	}
	return col.Finish(res, m.Mem), nil
}

// Speedup returns base cycles divided by ccr cycles — the paper's
// performance metric.
func Speedup(base, ccr *SimResult) float64 {
	if ccr.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(ccr.Cycles)
}
