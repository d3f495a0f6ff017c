package core

import (
	"runtime"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// simAllocBytes and dtmAllocBytes bound the heap bytes one timed run of
// tiny m88ksim allocates, CCR on the compiled program and DTM on the base
// program, once a first run has left a machine and a timing model to
// reuse: about 10 % above the 12,608 and 32,472 measured with Go 1.24 on
// linux/amd64. With a machine and a timing model built per run they were
// 36,432 and 74,760, and with a DTM entry array of full size 48,714.
const (
	simAllocBytes = 13_900
	dtmAllocBytes = 35_700
)

// profileAllocBytes bounds the heap bytes one profiling run of small gcc
// allocates: about 10 % above the 1,165,776 measured with Go 1.24 on
// linux/amd64. With a distinct-value list in every value counter the run
// allocated 2,443,644.
const profileAllocBytes = 1_280_000

// TestProfileRunAllocBytes pins the heap bytes one profiling run
// allocates. The profiler's tables are sized by the program text; each
// instruction's value counter is allocated on its first execution, and
// its distinct-value list only when a new tuple first finds its table
// full.
func TestProfileRunAllocBytes(t *testing.T) {
	w := workloads.Load("gcc", workloads.Small)
	run := func() {
		if _, _, err := ProfileRun(w.Prog, w.Train, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // build the program's shared tables once
	const n = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / n
	if got > profileAllocBytes {
		t.Errorf("one small gcc profiling run allocates %d bytes, bound %d", got, profileAllocBytes)
	}
	t.Logf("one small gcc profiling run allocates %d bytes", got)
}

// TestSimulateReuseAllocBytes pins the heap bytes one timed CCR run
// allocates. The run reuses a machine and a timing model an earlier run of
// the program gave back, and the CRB allocates only the state the program
// can reach: entries for the sets its region IDs index and each instance
// slot on its first use.
func TestSimulateReuseAllocBytes(t *testing.T) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	opts := DefaultOptions()
	cr, err := Compile(w.Prog, w.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSimAllocBytes(t, "CCR", cr.Prog, reuse.CCR(opts.CRB), w.Train, simAllocBytes)
}

// TestSimulateDTMAllocBytes pins the heap bytes one timed DTM run
// allocates. The run reuses a machine and a timing model; the DTM
// allocates a set's ways on the set's first install and each entry's
// banks on the entry's; the head plans and their eligibility table are
// the program's, built once per MinRun and shared by every DTM of it.
func TestSimulateDTMAllocBytes(t *testing.T) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	checkSimAllocBytes(t, "DTM", w.Prog, reuse.DTMOnly(reuse.DefaultDTMConfig()), w.Train, dtmAllocBytes)
}

// checkSimAllocBytes fails unless one timed run of prog under rc
// allocates at most bound bytes, averaged over repeated runs after a
// first run that builds the program's shared tables and leaves a machine
// and a timing model for the next.
func checkSimAllocBytes(t *testing.T, name string, prog *ir.Program, rc reuse.Config, args []int64, bound uint64) {
	t.Helper()
	opts := DefaultOptions()
	run := func() {
		if _, err := SimulateReuse(prog, rc, opts.Uarch, args, opts.Limit, nil); err != nil {
			t.Fatal(err)
		}
	}
	run() // build the program's shared tables once
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / n
	if got > bound {
		t.Errorf("one tiny %s run allocates %d bytes, bound %d", name, got, bound)
	}
	t.Logf("one tiny %s run allocates %d bytes", name, got)
}

// TestWarmDTMRunAllocatesNothing checks that allocating the DTM's banks on
// first install leaves a warm machine allocation-free: once a run has
// installed every entry it reaches, Reset and rerun allocate nothing.
func TestWarmDTMRunAllocatesNothing(t *testing.T) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	m := emu.New(w.Prog)
	m.DTM = reuse.NewDTM(reuse.DefaultDTMConfig(), w.Prog)
	run := func() {
		m.Reset()
		if _, err := m.Run(w.Train...); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if got := testing.AllocsPerRun(5, run); got != 0 {
		t.Errorf("warm DTM run allocates %v times, want 0", got)
	}
}
