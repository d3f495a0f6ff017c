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
