package ccr

// The benchmarks below regenerate each table and figure of the paper's
// evaluation (§5) through the experiment drivers, at Tiny workload scale so
// a full -bench=. run stays fast. The publication-scale numbers recorded in
// EXPERIMENTS.md come from `go run ./cmd/ccrpaper -scale medium`.

import (
	"fmt"
	"runtime"
	"testing"

	"ccr/internal/core"
	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/experiments"
	"ccr/internal/ir"
	"ccr/internal/reuse"
	"ccr/internal/telemetry"
	"ccr/internal/uarch"
	"ccr/internal/workloads"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = workloads.Tiny
	return cfg
}

// BenchmarkFigure4 regenerates the block- vs region-level reuse-potential
// limit study (paper Figure 4).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Figure4(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8a regenerates the computation-instance sweep
// (paper Figure 8(a): 128 entries × {4, 8, 16} CIs).
func BenchmarkFigure8a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Figure8a(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8b regenerates the computation-entry sweep
// (paper Figure 8(b): {32, 64, 128} entries × 8 CIs).
func BenchmarkFigure8b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Figure8b(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the static and dynamic computation-group
// distributions (paper Figures 9(a) and 9(b)).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Figure9(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10 regenerates the TOP-N% reuse-concentration study
// (paper Figure 10).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Figure10(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates the training- vs reference-input study
// (paper Figure 11).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Figure11(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalars regenerates the §5.2 headline numbers (average speedup,
// repetition eliminated, static-region statistics).
func BenchmarkScalars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Scalars(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAssoc and BenchmarkAblationNoMem regenerate the §6
// design-variation studies (DESIGN.md extensions).
func BenchmarkAblationAssoc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.AblationAssoc(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoMem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.AblationNoMem(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteParallel compares the serial and parallel execution paths
// of the internal/runner engine on the Figure 8(a) sweep, so the speedup
// from fanning the (benchmark × configuration) cells across workers is
// tracked in the bench trajectory. On a single-core machine the two
// sub-benchmarks should be within noise of each other (the parallel path
// adds only goroutine scheduling); with more cores jobs=GOMAXPROCS wins.
func BenchmarkSuiteParallel(b *testing.B) {
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Jobs = jobs
				s := experiments.NewSuite(cfg)
				if _, err := experiments.Figure8a(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Component micro-benchmarks: the substrate costs behind the figures.
// ---------------------------------------------------------------------

// BenchmarkMachineRun measures the steady-state cost of the emulator hot
// loop alone: one Machine is built up front and Reset+Run between
// iterations, so per-iteration cost is pure instruction interpretation —
// no construction, no tracer, no CRB. This is the microbenchmark the
// BENCH_emu.json regression gate tracks (scripts/bench.sh); with no tracer
// it must report 0 allocs/op.
func BenchmarkMachineRun(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	m := emu.New(w.Prog)
	if _, err := m.Run(w.Train...); err != nil {
		b.Fatal(err)
	}
	dyn := m.Stats.DynInstrs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(w.Train...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dyn), "instrs/run")
}

// BenchmarkMachineRunCCR is BenchmarkMachineRun on the transformed program
// with a warm default-geometry CRB attached: the steady-state cost of the
// reuse-enabled hot loop (lookup fast path included, recording mostly
// warmed out).
func BenchmarkMachineRunCCR(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	opts := core.DefaultOptions()
	cr, err := core.Compile(w.Prog, w.Train, opts)
	if err != nil {
		b.Fatal(err)
	}
	m := emu.New(cr.Prog)
	m.CRB = crb.New(opts.CRB, cr.Prog)
	if _, err := m.Run(w.Train...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(w.Train...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulator measures raw functional-emulation throughput
// (instructions per op reported as one m88ksim training run per iteration).
func BenchmarkEmulator(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	b.ReportAllocs()
	b.ResetTimer()
	var dyn int64
	for i := 0; i < b.N; i++ {
		m := emu.New(w.Prog)
		if _, err := m.Run(w.Train...); err != nil {
			b.Fatal(err)
		}
		dyn = m.Stats.DynInstrs
	}
	b.ReportMetric(float64(dyn), "instrs/run")
}

// BenchmarkTimingSimulation measures the cycle-level model's overhead on
// top of functional emulation.
func BenchmarkTimingSimulation(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	cfg := uarch.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(w.Prog)
		sim := uarch.NewSimulator(cfg, w.Prog)
		sim.Attach(m)
		if _, err := m.Run(w.Train...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigestRun measures one oracle digest of the base program: a
// batch-tier run with the digest folded inline.
func BenchmarkDigestRun(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DigestRun(w.Prog, nil, w.Train, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimedDigestRun measures one timed run that also folds the
// oracle digest: the base program on one machine carrying both the timing
// model and the collector, as a cold verification cell runs it. Compare it
// with BenchmarkTimingSimulation plus BenchmarkDigestRun, the two
// executions it replaces.
func BenchmarkTimedDigestRun(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	off := reuse.Config{Scheme: reuse.Off}
	cfg := uarch.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SimulateReuseDigest(w.Prog, off, cfg, w.Train, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePipeline measures the whole compiler support: alias
// analysis, profiling run, region formation and transformation.
func BenchmarkCompilePipeline(b *testing.B) {
	opts := core.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := workloads.Load("m88ksim", workloads.Tiny)
		if _, err := core.Compile(w.Prog, w.Train, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCRBLookup measures the hardware model's lookup path.
func BenchmarkCRBLookup(b *testing.B) {
	c := crb.New(crb.Config{Entries: 128, Instances: 8}, nil)
	regs := make([]int64, 16)
	for r := ir.RegionID(0); r < 64; r++ {
		c.Commit(r, crb.Instance{
			Inputs:  []crb.RegVal{{Reg: 1, Val: int64(r)}, {Reg: 2, Val: 7}},
			Outputs: []crb.RegVal{{Reg: 3, Val: int64(r) * 3}},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regs[1] = int64(i % 64)
		regs[2] = 7
		c.Lookup(ir.RegionID(i%64), regs)
	}
}

// BenchmarkMachineRunDTM is BenchmarkMachineRun on the *base* program with
// a warm default-geometry trace-memoization buffer attached: the
// steady-state cost of the batch tier with the DTM reuse scheme enabled.
// Like the bare run it must report 0 allocs/op — the DTM's lookup,
// recording and invalidation paths all work out of preallocated entry
// storage (scripts/bench.sh gates this).
func BenchmarkMachineRunDTM(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	m := emu.New(w.Prog)
	m.DTM = reuse.NewDTM(reuse.DefaultDTMConfig(), w.Prog)
	if _, err := m.Run(w.Train...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if _, err := m.Run(w.Train...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTMLookup measures the trace buffer's lookup hit path alone: a
// small program with one hot DTM-eligible run is executed once to warm the
// buffer, then the hot head is probed directly with a recorded input
// context.
func BenchmarkDTMLookup(b *testing.B) {
	pb := ir.NewProgramBuilder("dtm-lookup-bench")
	out := pb.Object("out", 1, []int64{0})
	f := pb.Func("main", 1)
	b0, b1, b2, b3, b4, b5 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	k, acc, sel, x, ptr := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b0.MovI(k, 0)
	b0.MovI(acc, 0)
	b1.Bge(k, f.Param(0), b5.ID())
	b2.AndI(sel, k, 3)
	b2.Jmp(b3.ID())
	b3.MulI(x, sel, 3)
	b3.AddI(x, x, 7)
	b3.Add(x, x, sel)
	b3.Jmp(b4.ID())
	b4.Add(acc, acc, x)
	b4.Lea(ptr, out, 0)
	b4.St(ptr, 0, acc, out)
	b4.AddI(k, k, 1)
	b4.Jmp(b1.ID())
	b5.Ret(acc)
	p := pb.Build()
	p.Link()
	ir.MustVerify(p)

	d := reuse.NewDTM(reuse.DefaultDTMConfig(), p)
	m := emu.New(p)
	m.DTM = d
	if _, err := m.Run(64); err != nil {
		b.Fatal(err)
	}
	heads := d.HeadStats()
	if len(heads) == 0 || heads[0].Hits == 0 {
		b.Fatal("no warm trace head to probe")
	}
	hot := heads[0]
	regs := make([]int64, 32)
	regs[sel] = 1
	if _, ok := d.Lookup(hot.Fn, hot.PC, regs); !ok {
		b.Fatal("warm lookup missed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regs[sel] = int64(i & 3)
		d.Lookup(hot.Fn, hot.PC, regs)
	}
}

// BenchmarkTelemetrySink measures the cost of the observability seam on a
// full m88ksim CCR simulation under three sink configurations: nil (the
// default fast path, which must stay free — DESIGN.md §9), NopSink (the
// interface-call cost of the seam alone) and the real Metrics collector.
// nil vs nop isolates what merely *having* the instrumentation costs when
// disabled; it should be within noise.
func BenchmarkTelemetrySink(b *testing.B) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	opts := core.DefaultOptions()
	cr, err := core.Compile(w.Prog, w.Train, opts)
	if err != nil {
		b.Fatal(err)
	}
	sinks := []struct {
		name string
		make func() telemetry.Sink
	}{
		{"nil", func() telemetry.Sink { return nil }},
		{"nop", func() telemetry.Sink { return telemetry.NopSink{} }},
		{"metrics", func() telemetry.Sink { return telemetry.NewMetrics() }},
	}
	for _, s := range sinks {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := emu.New(cr.Prog)
				buf := crb.New(opts.CRB, cr.Prog)
				buf.SetSink(s.make())
				m.CRB = buf
				if _, err := m.Run(w.Train...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFuncLevel regenerates the §6 function-level extension
// study.
func BenchmarkAblationFuncLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.AblationFuncLevel(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparison regenerates the §2.1 related-work positioning table
// (instruction reuse vs block reuse vs CCR).
func BenchmarkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(benchConfig())
		if _, err := experiments.Comparison(s); err != nil {
			b.Fatal(err)
		}
	}
}
