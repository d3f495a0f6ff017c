package core

import (
	"runtime/debug"
	"sync"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/uarch"
	"ccr/internal/workloads"
)

// TestCompileDeterministic compiles every workload at tiny scale several
// times, sequentially and concurrently, each on its own workloads.Load
// instance, and requires byte-identical transformed programs. Region
// selection reads the value profile's space-saving tables, so any
// order-dependent tie-break there would show up here as a differing dump.
func TestCompileDeterministic(t *testing.T) {
	const concurrent = 3
	compile := func(name string) (string, error) {
		w := workloads.Load(name, workloads.Tiny)
		cr, err := Compile(w.Prog, w.Train, DefaultOptions())
		if err != nil {
			return "", err
		}
		return cr.Prog.Dump(), nil
	}
	for _, name := range workloads.Names() {
		want, err := compile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dumps := make([]string, concurrent+1)
		errs := make([]error, concurrent+1)
		dumps[0], errs[0] = compile(name)
		var wg sync.WaitGroup
		for i := 1; i <= concurrent; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				dumps[i], errs[i] = compile(name)
			}(i)
		}
		wg.Wait()
		for i, got := range dumps {
			if errs[i] != nil {
				t.Fatalf("%s compile %d: %v", name, i, errs[i])
			}
			if got != want {
				t.Fatalf("%s compile %d: transformed program differs from the first compile", name, i)
			}
		}
	}
}

// TestProfileRunSteadyStateAllocs checks that the profiler allocates
// nothing per executed instruction or loop invocation: profiling the scan
// benchmark for n and for 8n outer iterations performs the same number of
// heap allocations. Every allocation is made on an instruction's first
// execution or a call depth's first loop, never again at steady state.
func TestProfileRunSteadyStateAllocs(t *testing.T) {
	base := buildScanBench(t)
	allocs := func(iters int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := ProfileRun(base, []int64{iters}, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 100
	short, long := allocs(n), allocs(8*n)
	if short != long {
		t.Fatalf("profiling %d iterations: %.0f allocs; %d iterations: %.0f allocs", n, short, 8*n, long)
	}
}

// TestTimedRunSteadyStateAllocs checks that the timing model allocates
// nothing per call or per executed run: a timed m88ksim run (machine,
// simulator and the run itself) makes the same small number of heap
// allocations at tiny and at small scale, which executes several times as
// many calls. Call frames reuse one ready array per call depth.
func TestTimedRunSteadyStateAllocs(t *testing.T) {
	allocs := func(s workloads.Scale) float64 {
		w := workloads.Load("m88ksim", s)
		cfg := uarch.DefaultConfig()
		return testing.AllocsPerRun(3, func() {
			m := emu.New(w.Prog)
			sim := uarch.NewSimulator(cfg, w.Prog)
			sim.Attach(m)
			if _, err := m.Run(w.Train...); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A collection cycle during the measurement adds a few runtime
	// allocations of its own; the runs are small, so collection is off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tiny, small := allocs(workloads.Tiny), allocs(workloads.Small)
	t.Logf("allocs per timed run: tiny %.0f, small %.0f", tiny, small)
	if tiny != small {
		t.Fatalf("timed m88ksim run: %.0f allocs at tiny, %.0f at small", tiny, small)
	}
	if tiny > 64 {
		t.Fatalf("timed m88ksim run: %.0f allocs, want at most 64", tiny)
	}
}

// TestSharedProfileConcurrent forms every workload's program from one
// profile under the paper's options and each formationVariants entry,
// all at once, and requires each dump to equal a serial CompileWith under
// the same options and the profile to read the same afterwards: region
// formation only reads the profile it is given. -short, which CI runs
// under the race detector, keeps four workloads.
func TestSharedProfileConcurrent(t *testing.T) {
	variants := append([]formationVariant{{"paper", DefaultOptions().Region}}, formationVariants()...)
	names := workloads.Names()
	if testing.Short() {
		names = []string{"lex", "sc", "compress", "espresso"}
	}
	for _, name := range names {
		w := workloads.Load(name, workloads.Tiny)
		ar := Prepare(w.Prog)
		want := make([]string, len(variants))
		for i, v := range variants {
			opts := DefaultOptions()
			opts.Region = v.opts
			cr, err := CompileWith(w.Prog, ar, w.Train, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.name, err)
			}
			want[i] = cr.Prog.Dump()
		}
		prof, train, err := ProfileRun(w.Prog, w.Train, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := profileText(w.Prog, prof)
		const copies = 2
		got := make([]string, copies*len(variants))
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cr, err := CompileFrom(w.Prog, ar, prof, train, variants[i%len(variants)].opts)
				if errs[i] = err; err == nil {
					got[i] = cr.Prog.Dump()
				}
			}(i)
		}
		wg.Wait()
		for i := range got {
			v := variants[i%len(variants)]
			if errs[i] != nil {
				t.Fatalf("%s/%s: %v", name, v.name, errs[i])
			}
			if got[i] != want[i%len(variants)] {
				t.Fatalf("%s/%s: program formed from the shared profile differs from a serial compile", name, v.name)
			}
		}
		if profileText(w.Prog, prof) != before {
			t.Fatalf("%s: forming regions changed the profile", name)
		}
	}
}
