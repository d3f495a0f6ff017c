package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ccr/internal/runner"
	"ccr/internal/workloads"
)

func suiteWithJobs(jobs int) *Suite {
	cfg := DefaultConfig()
	cfg.Scale = workloads.Tiny
	cfg.Jobs = jobs
	return NewSuite(cfg)
}

// TestParallelMatchesSerial locks in the runner's determinism contract:
// a parallel figure run renders byte-identically to the serial (jobs=1)
// run, for every grid and pool driver; the ablations section includes the
// heuristic ablation.
func TestParallelMatchesSerial(t *testing.T) {
	run := map[string]bool{"4": true, "8a": true, "8b": true, "10": true, "11": true, "ablations": true, "decant": true}
	serial, parallel := suiteWithJobs(1), suiteWithJobs(8)
	for _, sec := range Sections {
		if !run[sec.Name] {
			continue
		}
		var want, got strings.Builder
		if err := sec.Print(serial, &want); err != nil {
			t.Fatalf("%s serial: %v", sec.Name, err)
		}
		if err := sec.Print(parallel, &got); err != nil {
			t.Fatalf("%s parallel: %v", sec.Name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: parallel output differs from serial\n--- serial ---\n%s--- parallel ---\n%s", sec.Name, want.String(), got.String())
		}
	}
}

// TestRunCellsErrorPropagation injects a failing cell and checks that the
// sweep completes, the error surfaces with the cell's ID, and healthy
// cells are unaffected.
func TestRunCellsErrorPropagation(t *testing.T) {
	s := suiteWithJobs(4)
	boom := errors.New("injected cell failure")
	var ran atomic.Int64
	cells := make([]runner.Cell, 6)
	for i := range cells {
		i := i
		cells[i] = runner.Cell{
			ID: fmt.Sprintf("cell-%d", i),
			Do: func(context.Context) error {
				ran.Add(1)
				if i == 2 {
					return boom
				}
				return nil
			},
		}
	}
	err := s.RunCells(cells)
	if !errors.Is(err, boom) {
		t.Fatalf("RunCells error = %v, want the injected failure", err)
	}
	if !strings.Contains(err.Error(), "cell-2") {
		t.Fatalf("error does not name the failing cell: %v", err)
	}
	if ran.Load() != int64(len(cells)) {
		t.Fatalf("only %d of %d cells ran: one failure must not abort the sweep", ran.Load(), len(cells))
	}
}

// TestCompileSingleFlight runs the Figure 8, 10 and 11 drivers and every
// ablation on one parallel suite and checks the shared caches computed one
// compilation per benchmark and one base run per (benchmark, input) across
// the whole run: the heuristic ablation's paper point is the suite's own
// compilation, and its other points time against the suite's base runs.
func TestCompileSingleFlight(t *testing.T) {
	s := suiteWithJobs(8)
	if _, err := Figure8a(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure8b(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure10(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure11(s); err != nil {
		t.Fatal(err)
	}
	for _, ablation := range []func(*Suite) (*AblationResult, error){
		AblationAssoc, AblationNoMem, AblationSpeculation, AblationFuncLevel, AblationOutOfOrder,
	} {
		if _, err := ablation(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := AblationHeuristics(s); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	nb := int64(len(s.Benches))
	if st["compile"].Misses != nb {
		t.Fatalf("compile cache: %d misses, want exactly one per benchmark (%d)", st["compile"].Misses, nb)
	}
	if st["compile"].Hits == 0 {
		t.Fatal("compile cache never shared work across drivers")
	}
	// Baseline sims: one per (benchmark, input); Figures 8/10 and the
	// ablations use the training input, Figure 11 adds the reference input.
	if st["base_sim"].Misses != 2*nb {
		t.Fatalf("base_sim cache: %d misses, want %d", st["base_sim"].Misses, 2*nb)
	}
	if st["prepare"].Misses != nb {
		t.Fatalf("prepare cache: %d misses, want %d", st["prepare"].Misses, nb)
	}
}

// TestProfileOncePerSuite checks that every compilation variant forms
// its regions from the benchmark's one profile: the heuristic ablation's
// four points, the function-level ablation and Verify's function-level
// check together make exactly one profiling run per benchmark.
func TestProfileOncePerSuite(t *testing.T) {
	s := suiteWithJobs(2)
	if _, err := AblationHeuristics(s); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationFuncLevel(s); err != nil {
		t.Fatal(err)
	}
	v, err := Verify(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Failed() != 0 {
		t.Fatalf("verify: %s", v.Render())
	}
	st := s.CacheStats()
	nb := int64(len(s.Benches))
	if st["profile"].Misses != nb {
		t.Fatalf("profile cache: %d profiling runs, want one per benchmark (%d)", st["profile"].Misses, nb)
	}
	// Three heuristic points besides the paper's, and one function-level
	// variant shared by the ablation and Verify.
	if st["variant"].Misses != 4*nb {
		t.Fatalf("variant cache: %d compilations, want %d", st["variant"].Misses, 4*nb)
	}
}

// TestSuiteManifest checks a suite run fills an attached manifest with
// cells, worker records and cache counters.
func TestSuiteManifest(t *testing.T) {
	s := suiteWithJobs(4)
	m := runner.NewManifest("experiments-test", s.Jobs())
	s.AttachManifest(m)
	if _, err := Figure8a(s); err != nil {
		t.Fatal(err)
	}
	s.FlushCacheStats(m)
	m.Finish()
	if len(m.Cells) != 3*len(s.Benches) {
		t.Fatalf("manifest cells = %d, want %d", len(m.Cells), 3*len(s.Benches))
	}
	for _, c := range m.Cells {
		if !strings.HasPrefix(c.ID, "sweep/") {
			t.Fatalf("cell id %q", c.ID)
		}
		if c.Error != "" {
			t.Fatalf("cell %s failed: %s", c.ID, c.Error)
		}
	}
	if m.Caches["compile"].Misses == 0 {
		t.Fatal("manifest missing cache stats")
	}
	var cells int
	for _, w := range m.Workers {
		cells += w.Cells
	}
	if cells != len(m.Cells) {
		t.Fatalf("worker cell counts (%d) disagree with cell records (%d)", cells, len(m.Cells))
	}
	if m.WallSeconds <= 0 {
		t.Fatal("manifest wall time not stamped")
	}
	if _, err := m.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestGridDispatchInterleavesBenchmarks checks the grid's dispatch order
// in the manifest: with two or more workers, the first len(Benches) cells
// of a sweep and of Verify name distinct benchmarks, so no worker starts
// by waiting on another's single-flight base run or base digest.
func TestGridDispatchInterleavesBenchmarks(t *testing.T) {
	s := suiteWithJobs(2)
	s.Benches = s.Benches[:4]
	for _, run := range []struct {
		name string
		fn   func(*Suite) error
	}{
		{"sweep", func(s *Suite) error { _, err := Figure8a(s); return err }},
		{"verify", func(s *Suite) error { _, err := Verify(s); return err }},
	} {
		m := runner.NewManifest(run.name, s.Jobs())
		s.AttachManifest(m)
		if err := run.fn(s); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, c := range m.Cells[:len(s.Benches)] {
			bench := strings.Split(c.ID, "/")[1]
			if seen[bench] {
				t.Errorf("%s: benchmark %s dispatched twice among the first %d cells (%s)", run.name, bench, len(s.Benches), c.ID)
			}
			seen[bench] = true
		}
	}
}

// TestAblationFuncLevelLeavesProgramReadOnly checks that the
// function-level ablation compiles the suite's prepared program and never
// re-annotates it: once prepared, a benchmark's program is read-only, so a
// reader may dump it while the ablation runs beside it. Under -race any
// write to the program, such as a second alias analysis annotating it, is
// a data race; without -race the dumps before and after must match.
func TestAblationFuncLevelLeavesProgramReadOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = workloads.Tiny
	cfg.Jobs = 2
	s := NewSuiteOf(cfg, []*workloads.Benchmark{
		workloads.Load("compress", workloads.Tiny), workloads.Load("m88ksim", workloads.Tiny),
	})
	want := make([]string, len(s.Benches))
	for i, b := range s.Benches {
		if _, err := s.prepared(b); err != nil {
			t.Fatal(err)
		}
		want[i] = b.Prog.Dump()
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, b := range s.Benches {
				b.Prog.Dump()
			}
		}
	}()
	_, err := AblationFuncLevel(s)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range s.Benches {
		if b.Prog.Dump() != want[i] {
			t.Errorf("%s: the ablation changed the prepared program", b.Name)
		}
	}
}
