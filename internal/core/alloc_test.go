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
// program: about 10 % above the 36,432 and 74,760 measured with Go 1.24
// on linux/amd64.
const (
	simAllocBytes = 40_000
	dtmAllocBytes = 82_000
)

// TestSimulateReuseAllocBytes pins the heap bytes one timed CCR run
// allocates. The machine, the timing model and the CRB allocate only the
// state the program can reach: CRB entries for the sets its region IDs
// index, each instance slot on its first use, a BTB entry per index its
// branches name, an I-cache bounded by the text, a D-cache bounded by the
// data image, and one memory image shared by every machine of the
// program.
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
// allocates. Besides the timing model's tables, the DTM allocates its
// entry array and each entry's banks on first install; the head plans are
// the program's, built once per MinRun and shared by every DTM of it.
func TestSimulateDTMAllocBytes(t *testing.T) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	checkSimAllocBytes(t, "DTM", w.Prog, reuse.DTMOnly(reuse.DefaultDTMConfig()), w.Train, dtmAllocBytes)
}

// checkSimAllocBytes fails unless one timed run of prog under rc
// allocates at most bound bytes, averaged over repeated runs after a
// first run that builds the program's shared tables.
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
