package core

import (
	"reflect"
	"sync"
	"testing"

	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// TestDTMPlansSharedConcurrently runs timed DTM simulations of one
// program concurrently at several MinRuns, two per MinRun, so the
// program's head plans are built and read by concurrent DTMs (run it
// under -race), and requires each to equal the same simulation run alone
// on a fresh copy of the program.
func TestDTMPlansSharedConcurrently(t *testing.T) {
	opts := DefaultOptions()
	minRuns := []int{1, 2, 3, 5}
	sim := func(w *workloads.Benchmark, minRun int) (*SimResult, error) {
		cfg := reuse.DefaultDTMConfig()
		cfg.MinRun = minRun
		return SimulateReuse(w.Prog, reuse.DTMOnly(cfg), opts.Uarch, w.Train, opts.Limit, nil)
	}
	want := make([]*SimResult, len(minRuns))
	for i, mr := range minRuns {
		r, err := sim(workloads.Load("m88ksim", workloads.Tiny), mr)
		if err != nil {
			t.Fatal(err)
		}
		if r.DTM.Hits == 0 {
			t.Fatalf("MinRun %d: no trace hit, so the run shares nothing", mr)
		}
		want[i] = r
	}

	w := workloads.Load("m88ksim", workloads.Tiny)
	got := make([]*SimResult, 2*len(minRuns))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sim(w, minRuns[i%len(minRuns)])
		}()
	}
	wg.Wait()
	for i, r := range got {
		mr := minRuns[i%len(minRuns)]
		if errs[i] != nil {
			t.Fatalf("MinRun %d: %v", mr, errs[i])
		}
		if !reflect.DeepEqual(r, want[i%len(minRuns)]) {
			t.Errorf("MinRun %d: concurrent run %+v, alone %+v", mr, r, want[i%len(minRuns)])
		}
	}
}
