package core

import (
	"testing"

	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// buildScanBench builds an m88ksim-like benchmark: main repeatedly calls
// scan(), which walks a 16-entry table; the table changes rarely (every
// 64th outer iteration), so scan's loop is a highly reusable cyclic region.
func buildScanBench(t testing.TB) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("scanbench")
	init := make([]int64, 16)
	for i := range init {
		init[i] = int64(i * 3)
	}
	table := pb.Object("table", 16, init)

	// scan() = sum over table[i] * (i+1)
	scan := pb.Func("scan", 0)
	sEntry := scan.NewBlock()
	sHead := scan.NewBlock()
	sBody := scan.NewBlock()
	sExit := scan.NewBlock()
	sum, i, base, addr, v, w := scan.NewReg(), scan.NewReg(), scan.NewReg(), scan.NewReg(), scan.NewReg(), scan.NewReg()
	sEntry.MovI(sum, 0)
	sEntry.MovI(i, 0)
	sEntry.Lea(base, table, 0)
	sHead.BgeI(i, 16, sExit.ID())
	sBody.Add(addr, base, i)
	sBody.Ld(v, addr, 0, table)
	sBody.AddI(w, i, 1)
	sBody.Mul(v, v, w)
	sBody.Add(sum, sum, v)
	sBody.AddI(i, i, 1)
	sBody.Jmp(sHead.ID())
	sExit.Ret(sum)

	// main(iters): total += scan() each iteration; mutate table rarely.
	f := pb.Func("main", 1)
	iters := f.Param(0)
	mEntry := f.NewBlock()
	mHead := f.NewBlock()
	mCall := f.NewBlock()
	mMut := f.NewBlock()
	mLatch := f.NewBlock()
	mExit := f.NewBlock()
	total, k, r, tmp, taddr := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	mEntry.MovI(total, 0)
	mEntry.MovI(k, 0)
	mHead.Bge(k, iters, mExit.ID())
	mCall.Call(r, scan.ID())
	mCall.Add(total, total, r)
	mCall.RemI(tmp, k, 64)
	mCall.BneI(tmp, 0, mLatch.ID())
	mMut.Lea(taddr, table, 5)
	mMut.St(taddr, 0, k, table)
	mLatch.AddI(k, k, 1)
	mLatch.Jmp(mHead.ID())
	mExit.Ret(total)

	p := pb.Build()
	if err := ir.Verify(p); err != nil {
		t.Fatalf("verify base: %v", err)
	}
	return p
}

func TestEndToEndCyclicReuse(t *testing.T) {
	base := buildScanBench(t)
	opts := DefaultOptions()
	const iters = 2000

	cr, err := Compile(base, []int64{iters}, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(cr.Plans) == 0 {
		t.Fatal("no regions formed; expected the scan loop to become a cyclic region")
	}
	foundCyclic := false
	for _, pl := range cr.Plans {
		if pl.Kind == ir.Cyclic {
			foundCyclic = true
			if pl.Class != ir.MemoryDependent {
				t.Errorf("scan loop region class = %v, want MD (reads a writable table)", pl.Class)
			}
		}
	}
	if !foundCyclic {
		t.Fatalf("no cyclic region among %d plans", len(cr.Plans))
	}

	baseRes, err := Simulate(base, nil, opts.Uarch, []int64{iters}, 0)
	if err != nil {
		t.Fatalf("simulate base: %v", err)
	}
	ccrRes, err := Simulate(cr.Prog, &opts.CRB, opts.Uarch, []int64{iters}, 0)
	if err != nil {
		t.Fatalf("simulate ccr: %v", err)
	}

	if baseRes.Result != ccrRes.Result {
		t.Fatalf("architectural mismatch: base %d, ccr %d", baseRes.Result, ccrRes.Result)
	}
	if ccrRes.Emu.ReuseHits == 0 {
		t.Fatalf("no reuse hits: %+v", ccrRes.Emu)
	}
	// The table mutates every 64 invocations, so misses should be rare.
	hitRate := float64(ccrRes.Emu.ReuseHits) / float64(ccrRes.Emu.ReuseHits+ccrRes.Emu.ReuseMisses)
	if hitRate < 0.9 {
		t.Errorf("reuse hit rate %.2f, want ≥ 0.9 (hits=%d misses=%d)",
			hitRate, ccrRes.Emu.ReuseHits, ccrRes.Emu.ReuseMisses)
	}
	if ccrRes.Emu.Invalidations == 0 {
		t.Error("expected invalidate instructions to execute after table stores")
	}
	sp := Speedup(baseRes, ccrRes)
	if sp <= 1.1 {
		t.Errorf("speedup = %.3f, want > 1.1 (base %d cycles, ccr %d cycles)",
			sp, baseRes.Cycles, ccrRes.Cycles)
	}
	// Reuse must eliminate most of scan's dynamic instructions.
	if ccrRes.Emu.DynInstrs >= baseRes.Emu.DynInstrs {
		t.Errorf("ccr executed %d instrs, base %d — reuse eliminated nothing",
			ccrRes.Emu.DynInstrs, baseRes.Emu.DynInstrs)
	}
}

func TestCCRWithoutBufferMatchesBase(t *testing.T) {
	base := buildScanBench(t)
	opts := DefaultOptions()
	cr, err := Compile(base, []int64{500}, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// With no CRB, every reuse misses; the transformed program must still
	// compute the base result.
	got, err := RunFunctional(cr.Prog, nil, []int64{321}, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	want, err := RunFunctional(base, nil, []int64{321}, 0)
	if err != nil {
		t.Fatalf("run base: %v", err)
	}
	if got.Result != want.Result {
		t.Fatalf("result %d, want %d", got.Result, want.Result)
	}
}

// TestSchemeOffBitIdenticalToLegacyRun proves the reuse-scheme seam is
// inert when disabled: selecting scheme "off" through the full scheme
// plumbing must produce the complete identity digest — invariant
// components plus Trace and DynInstrs — of a hand-rolled legacy machine
// run that never touches the CRB or DTM fields. Checked on both engines
// for a synthetic benchmark and a real workload.
func TestSchemeOffBitIdenticalToLegacyRun(t *testing.T) {
	type tc struct {
		name string
		prog *ir.Program
		args []int64
	}
	cases := []tc{{"scanbench", buildScanBench(t), []int64{300}}}
	b := workloads.Load("compress", workloads.Tiny)
	cases = append(cases, tc{"compress", b.Prog, b.Train})

	legacy := func(prog *ir.Program, args []int64, interp bool) oracle.Digest {
		m := emu.New(prog)
		m.Interp = interp
		var col oracle.Collector
		col.Attach(m)
		res, err := m.Run(args...)
		if err != nil {
			t.Fatalf("legacy run: %v", err)
		}
		return col.Finish(res, m.Mem)
	}
	for _, c := range cases {
		for _, interp := range []bool{false, true} {
			want := legacy(c.prog, c.args, interp)
			got, err := DigestRunReuseEngine(c.prog, reuse.Config{Scheme: reuse.Off}, c.args, 0, interp)
			if err != nil {
				t.Fatalf("%s: scheme-off run: %v", c.name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s (interp=%v): scheme off diverged from legacy run:\n got %+v\nwant %+v",
					c.name, interp, got, want)
			}
		}
	}
}

func TestEquivalenceAcrossCRBConfigs(t *testing.T) {
	base := buildScanBench(t)
	opts := DefaultOptions()
	cr, err := Compile(base, []int64{800}, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := RunFunctional(base, nil, []int64{1000}, 0)
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	configs := []crb.Config{
		{Entries: 1, Instances: 1, Assoc: 1, NoMemEntriesFrac: 0},
		{Entries: 2, Instances: 1, Assoc: 1, NoMemEntriesFrac: 0},
		{Entries: 32, Instances: 4, Assoc: 1, NoMemEntriesFrac: 0},
		{Entries: 128, Instances: 16, Assoc: 1, NoMemEntriesFrac: 0},
		{Entries: 64, Instances: 8, Assoc: 4, NoMemEntriesFrac: 0},
		{Entries: 128, Instances: 8, Assoc: 1, NoMemEntriesFrac: 0.5},
		{Entries: 128, Instances: 8, Assoc: 1, NoMemEntriesFrac: 1},
	}
	for _, cfg := range configs {
		got, err := RunFunctional(cr.Prog, &cfg, []int64{1000}, 0)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if got.Result != want.Result {
			t.Fatalf("cfg %+v: result %d, want %d", cfg, got.Result, want.Result)
		}
	}
}
