package emu

import (
	"errors"
	"strings"
	"testing"

	"ccr/internal/ir"
)

// interpOf returns a machine forced onto the legacy block-structured
// interpreter, the reference the predecoded engine must match exactly.
func interpOf(p *ir.Program) *Machine {
	m := New(p)
	m.Interp = true
	return m
}

// carefulOf returns a machine held on the predecoded engine's careful
// tier: it runs a clone of p whose functions have no batch form, a shape
// the engine serves instruction at a time.
func carefulOf(p *ir.Program) *Machine {
	c := p.Clone()
	for _, df := range c.Decoded().Funcs {
		df.XCode = nil
	}
	return New(c)
}

// TestRunAllocs pins the allocation-free guarantee of the predecoded
// engine: with no tracer and no CRB, steady-state Reset+Run performs zero
// heap allocations (frames, register files, and the statistics flush all
// come from machine-owned pools).
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented runtime allocates outside the engine's control")
	}
	p := buildSumLoop(t, []int64{3, 1, 4, 1, 5, 9, 2, 6})
	m := New(p)
	if _, err := m.Run(8); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset()
		if _, err := m.Run(8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+Run allocates %v times per run, want 0", allocs)
	}
}

// runBoth executes the program on the predecoded engine and the reference
// interpreter with the same limit and returns both machines for
// comparison.
func runBoth(t *testing.T, p *ir.Program, limit int64, args ...int64) (fast, ref *Machine, fres, rres int64, ferr, rerr error) {
	t.Helper()
	return runBothDigest(t, p, limit, false, args...)
}

// runBothDigest is runBoth with a Digest attached to both machines when
// digest is set.
func runBothDigest(t *testing.T, p *ir.Program, limit int64, digest bool, args ...int64) (fast, ref *Machine, fres, rres int64, ferr, rerr error) {
	t.Helper()
	fast, ref = New(p), interpOf(p)
	fast.Limit, ref.Limit = limit, limit
	if digest {
		fast.Digest, ref.Digest = new(Digest), new(Digest)
	}
	fres, ferr = fast.Run(args...)
	rres, rerr = ref.Run(args...)
	return
}

// compareDigests asserts the digests attached by runBothDigest, if any,
// hold the same state.
func compareDigests(t *testing.T, fast, ref *Machine) {
	t.Helper()
	if fast.Digest != nil && *fast.Digest != *ref.Digest {
		t.Errorf("digest diverged:\nengine %+v\ninterp %+v", *fast.Digest, *ref.Digest)
	}
}

// compareStats asserts the statistics blocks agree field by field (the
// digest-level equivalence the experiments suite checks end to end).
func compareStats(t *testing.T, fast, ref *Machine) {
	t.Helper()
	f, r := &fast.Stats, &ref.Stats
	if f.DynInstrs != r.DynInstrs {
		t.Errorf("DynInstrs: engine %d, interp %d", f.DynInstrs, r.DynInstrs)
	}
	if f.Branches != r.Branches || f.TakenBranches != r.TakenBranches {
		t.Errorf("branches: engine %d/%d, interp %d/%d",
			f.Branches, f.TakenBranches, r.Branches, r.TakenBranches)
	}
	if f.ByOp != r.ByOp {
		t.Errorf("ByOp diverged:\nengine %v\ninterp %v", f.ByOp, r.ByOp)
	}
}

// TestEngineMatchesInterp compares result and statistics on the ordinary
// loop workload (the batch tier executes everything here).
func TestEngineMatchesInterp(t *testing.T) {
	p := buildSumLoop(t, []int64{3, 1, 4, 1, 5, 9, 2, 6})
	fast, ref, fres, rres, ferr, rerr := runBoth(t, p, 0, 8)
	if ferr != nil || rerr != nil {
		t.Fatalf("errs: engine %v, interp %v", ferr, rerr)
	}
	if fres != rres {
		t.Fatalf("result: engine %d, interp %d", fres, rres)
	}
	compareStats(t, fast, ref)
}

// TestEngineLimitParity sweeps the instruction limit across every value up
// to the full run length: at each point the engine and the interpreter
// must agree on (result, error, DynInstrs), undigested and with a Digest
// attached (then also on the digest state). This walks the batch loop's
// budget endgame — the handoff to the careful tier when a straight-line
// run no longer fits — across every possible cut position, including cuts
// at calls, returns, branch boundaries, and inside fused superinstructions
// (the sum loop's body fuses Add+Ld).
func TestEngineLimitParity(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, tc := range []struct {
		name string
		p    *ir.Program
		arg  int64
	}{
		{"callloop", buildCallLoop(t), 6},
		{"sumloop", buildSumLoop(t, vals), int64(len(vals))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Full run length first.
			ref := interpOf(tc.p)
			if _, err := ref.Run(tc.arg); err != nil {
				t.Fatal(err)
			}
			full := ref.Stats.DynInstrs
			for limit := int64(1); limit <= full+1; limit++ {
				for _, digest := range []bool{false, true} {
					fast, ref, fres, rres, ferr, rerr := runBothDigest(t, tc.p, limit, digest, tc.arg)
					if (ferr == nil) != (rerr == nil) || (ferr != nil && ferr.Error() != rerr.Error()) {
						t.Fatalf("limit %d: errs engine %v, interp %v", limit, ferr, rerr)
					}
					if fres != rres {
						t.Fatalf("limit %d: result engine %d, interp %d", limit, fres, rres)
					}
					if fast.Stats.DynInstrs != ref.Stats.DynInstrs {
						t.Fatalf("limit %d: DynInstrs engine %d, interp %d",
							limit, fast.Stats.DynInstrs, ref.Stats.DynInstrs)
					}
					compareStats(t, fast, ref)
					compareDigests(t, fast, ref)
				}
			}
		})
	}
}

// buildCallLoop builds main(n) { s=0; for i=0..n-1 { s += double(i) }; ret s }
// with a callee, so the limit sweep crosses call/return frame switches.
func buildCallLoop(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("callloop")
	g := pb.Func("double", 1)
	gb := g.NewBlock()
	gr := g.NewReg()
	gb.Add(gr, g.Param(0), g.Param(0))
	gb.Ret(gr)

	f := pb.Func("main", 1)
	n := f.Param(0)
	entry := f.NewBlock()
	loop := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	s, i, v := f.NewReg(), f.NewReg(), f.NewReg()
	entry.MovI(s, 0)
	entry.MovI(i, 0)
	loop.Bge(i, n, exit.ID())
	body.Call(v, g.ID(), i)
	body.Add(s, s, v)
	body.AddI(i, i, 1)
	body.Jmp(loop.ID())
	exit.Ret(s)
	pb.SetMain(f.ID())
	p := pb.Build()
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p
}

// TestEngineFellOffEndParity pins fault parity on the sentinel path: a
// function whose final block lacks a terminator falls off the end with the
// same fault coordinates and the same instruction count on both engines,
// with the sentinel slot never counted as an executed instruction.
func TestEngineFellOffEndParity(t *testing.T) {
	pb := ir.NewProgramBuilder("felloff")
	f := pb.Func("main", 0)
	b := f.NewBlock()
	r := f.NewReg()
	b.MovI(r, 1)
	b.AddI(r, r, 2) // no terminator: falls off the end
	pb.SetMain(f.ID())
	p := pb.Build()

	fast, ref, _, _, ferr, rerr := runBoth(t, p, 0)
	if ferr == nil || rerr == nil {
		t.Fatalf("expected faults, got engine %v, interp %v", ferr, rerr)
	}
	var ff, rf *Fault
	if !errors.As(ferr, &ff) || !errors.As(rerr, &rf) {
		t.Fatalf("non-Fault errors: engine %v, interp %v", ferr, rerr)
	}
	if *ff != *rf {
		t.Fatalf("fault diverged: engine %+v, interp %+v", ff, rf)
	}
	compareStats(t, fast, ref)
	if fast.Stats.DynInstrs != 2 {
		t.Fatalf("DynInstrs = %d, want 2 (sentinel not counted)", fast.Stats.DynInstrs)
	}
}

// TestEngineLoadFaultParity pins fault parity mid-run: the batch tier
// pre-charges whole straight-line runs, so a load fault in the middle must
// refund the unexecuted tail to match the interpreter's exact instruction
// count (the faulting instruction itself is counted).
func TestEngineLoadFaultParity(t *testing.T) {
	pb := ir.NewProgramBuilder("ldfault")
	obj := pb.Object("buf", 4, nil)
	f := pb.Func("main", 0)
	b := f.NewBlock()
	a, v, w := f.NewReg(), f.NewReg(), f.NewReg()
	b.MovI(a, 1<<40) // far out of range
	b.Ld(v, a, 0, ir.NoMem)
	b.Add(w, v, v) // pre-charged but never executed
	b.Ret(w)
	pb.SetMain(f.ID())
	_ = obj
	p := pb.Build()

	fast, ref, _, _, ferr, rerr := runBoth(t, p, 0)
	if ferr == nil || rerr == nil || ferr.Error() != rerr.Error() {
		t.Fatalf("fault parity: engine %v, interp %v", ferr, rerr)
	}
	compareStats(t, fast, ref)
	if fast.Stats.DynInstrs != 2 {
		t.Fatalf("DynInstrs = %d, want 2 (movi + faulting load)", fast.Stats.DynInstrs)
	}

	// The sum loop walked past the end of A into B: the load sits in the
	// fused Add+Ld superinstruction and faults on A's hinted bounds while
	// still inside memory, mid-run.
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	p = buildSumLoopPadded(t, vals, 4)
	fast, ref, _, _, ferr, rerr = runBoth(t, p, 0, int64(len(vals))+3)
	const want = "load address 8 outside hinted object A [0,8)"
	if ferr == nil || rerr == nil || ferr.Error() != rerr.Error() {
		t.Fatalf("fault parity: engine %v, interp %v", ferr, rerr)
	}
	if !strings.Contains(ferr.Error(), want) {
		t.Fatalf("fault = %v, want %q", ferr, want)
	}
	compareStats(t, fast, ref)
}

// sumLoopFused returns the sum loop's decoded main after checking that its
// hot region (the loop body) is specialized: the batch form holds the
// fused Add+Ld superinstruction the tests below drive.
func sumLoopFused(t *testing.T, p *ir.Program) *ir.DecodedFunc {
	t.Helper()
	for _, df := range p.Decoded().Funcs {
		if df.Fn.Name != "main" {
			continue
		}
		if df.XCode == nil {
			t.Fatal("sum loop main has no batch form")
		}
		for pc := range df.XCode {
			if df.XCode[pc].XOp == ir.XFAddLd {
				return df
			}
		}
		t.Fatal("sum loop body holds no fused Add+Ld")
	}
	t.Fatal("sum loop main not decoded")
	return nil
}

// TestSpecTierDifferential pins result and statistics identity across the
// three execution configurations of the sum loop's hot region: the batch
// tier running the fused superinstructions, the careful tier (a program
// without a batch form runs instruction at a time, unfused), and the
// reference interpreter.
func TestSpecTierDifferential(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	p := buildSumLoop(t, vals)
	sumLoopFused(t, p)

	mb := New(p)
	mc := carefulOf(p)
	ref := interpOf(p)

	bres, berr := mb.Run(int64(len(vals)))
	cres, cerr := mc.Run(int64(len(vals)))
	rres, rerr := ref.Run(int64(len(vals)))
	if berr != nil || cerr != nil || rerr != nil {
		t.Fatalf("errs: batch %v, careful %v, interp %v", berr, cerr, rerr)
	}
	if bres != rres || cres != rres {
		t.Fatalf("results: batch %d, careful %d, interp %d", bres, cres, rres)
	}
	compareStats(t, mb, ref)
	compareStats(t, mc, ref)
}

// TestSpecTierFaultParity drives the sum loop's hot region into a load
// fault: with A the only object, the loop walks off the end of memory, so
// the load inside the fused Add+Ld superinstruction takes the
// out-of-memory exit (TestEngineLoadFaultParity covers the hinted-object
// exit). The engine must reconstruct the interpreter's exact error and
// partial statistics from the fused fault exit, and with a Digest attached
// its digest state too: the fused add is folded, the faulting load not.
func TestSpecTierFaultParity(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	p := buildSumLoop(t, vals)
	sumLoopFused(t, p)

	n := int64(len(vals)) + 3 // walks off the end of A
	for _, digest := range []bool{false, true} {
		fast, ref, _, _, ferr, rerr := runBothDigest(t, p, 0, digest, n)
		if ferr == nil || rerr == nil {
			t.Fatalf("expected faults, got engine %v, interp %v", ferr, rerr)
		}
		if ferr.Error() != rerr.Error() {
			t.Fatalf("fault text:\nengine: %v\ninterp: %v", ferr, rerr)
		}
		const want = "load address 8 out of range"
		if !strings.Contains(ferr.Error(), want) {
			t.Fatalf("fault = %v, want %q", ferr, want)
		}
		compareStats(t, fast, ref)
		compareDigests(t, fast, ref)
	}
}
