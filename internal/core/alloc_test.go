package core

import (
	"runtime"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// simAllocBytes bounds the heap bytes one timed CCR run of tiny m88ksim
// allocates: about 10 % above the 72,900 measured with Go 1.24 on
// linux/amd64.
const simAllocBytes = 80_000

// TestSimulateReuseAllocBytes pins the heap bytes one timed CCR run
// allocates. The machine, the timing model and the CRB allocate only the
// state the program can reach: the CRB's banks on first install, a BTB
// and I-cache bounded by the text, a D-cache bounded by the data image,
// and one memory image shared by every machine of the program.
func TestSimulateReuseAllocBytes(t *testing.T) {
	w := workloads.Load("m88ksim", workloads.Tiny)
	opts := DefaultOptions()
	cr, err := Compile(w.Prog, w.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc := reuse.CCR(opts.CRB)
	run := func() {
		if _, err := SimulateReuse(cr.Prog, rc, opts.Uarch, w.Train, opts.Limit, nil); err != nil {
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
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > simAllocBytes {
		t.Errorf("one tiny CCR run allocates %d bytes, bound %d", got, simAllocBytes)
	}
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
