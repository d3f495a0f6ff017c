package vprof

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ccr/internal/emu"
	"ccr/internal/ir"
)

func TestValueCounterTopK(t *testing.T) {
	c := &ValueCounter{}
	for i := 0; i < 70; i++ {
		c.Observe(1, 1)
	}
	for i := 0; i < 20; i++ {
		c.Observe(2, 2)
	}
	for i := 0; i < 10; i++ {
		c.Observe(int64(100+i), 0) // ten singletons
	}
	if c.Total() != 100 {
		t.Fatalf("total = %d", c.Total())
	}
	if inv := c.Invariance(1); inv < 0.65 || inv > 0.75 {
		t.Fatalf("top-1 invariance = %f, want ≈ 0.70", inv)
	}
	if inv := c.Invariance(5); inv < 0.90 {
		t.Fatalf("top-5 invariance = %f, want ≥ 0.90", inv)
	}
	if c.Distinct() != 12 {
		t.Fatalf("distinct = %d, want 12", c.Distinct())
	}
}

// TestValueCounterEvictionOrder pins the space-saving replacement: the
// victim is the minimum count with ties broken by the lowest slot, and the
// new tuple takes over that slot with the victim's count plus one.
func TestValueCounterEvictionOrder(t *testing.T) {
	c := &ValueCounter{}
	for i := 0; i < counterCapacity; i++ {
		c.Observe(int64(i), 0)
	}
	c.Observe(0, 0)   // slot 0 → 2; slots 1..15 hold 1
	c.Observe(100, 0) // evicts slot 1 (lowest of the 1s) → 2
	c.Observe(101, 0) // evicts slot 2 → 2
	c.Observe(1, 0)   // 1 was evicted: takes slot 3 → 2
	c.Observe(100, 0) // hit in slot 1 → 3
	for i := 4; i < counterCapacity; i++ {
		c.Observe(int64(i), 0) // slots 4..15 → 2: every count ≥ 2
	}
	c.Observe(102, 0) // all-2 tie at slots 0, 2..15: evicts slot 0 → 3

	wantKeys := []int64{102, 100, 101, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	wantCounts := []int64{3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}
	for i := range wantKeys {
		if c.keys[i] != (valueKey{wantKeys[i], 0}) || c.counts[i] != wantCounts[i] {
			t.Fatalf("slot %d = %v×%d, want %d×%d", i, c.keys[i], c.counts[i], wantKeys[i], wantCounts[i])
		}
	}
	if c.Total() != 34 || c.Distinct() != 19 {
		t.Fatalf("total %d distinct %d, want 34 and 19", c.Total(), c.Distinct())
	}
	if got := c.TopK(3); got != 8 {
		t.Fatalf("TopK(3) = %d, want 8", got)
	}
}

// TestValueCounterDistinctSaturates: the distinct estimate stops at
// distinctSaturation, and TopK never allocates.
func TestValueCounterDistinctSaturates(t *testing.T) {
	c := &ValueCounter{}
	for i := 0; i < 3*distinctSaturation; i++ {
		c.Observe(int64(i), int64(i))
	}
	if c.Distinct() != distinctSaturation {
		t.Fatalf("distinct = %d, want %d", c.Distinct(), distinctSaturation)
	}
	if n := testing.AllocsPerRun(10, func() { c.TopK(InvariantK) }); n != 0 {
		t.Fatalf("TopK allocates %.0f objects", n)
	}
}

// TestValueCounterSpaceSavingOverestimates: the space-saving approximation
// never undercounts the true top-k weight (standard property of the
// algorithm: counts are upper bounds).
func TestValueCounterSpaceSavingOverestimates(t *testing.T) {
	f := func(vals []uint8) bool {
		c := &ValueCounter{}
		exact := map[int64]int64{}
		for _, v := range vals {
			x := int64(v % 40) // up to 40 distinct values, over capacity 16
			c.Observe(x, 0)
			exact[x]++
		}
		if len(vals) == 0 {
			return c.TopK(5) == 0
		}
		// Exact top-5.
		var counts []int64
		for _, n := range exact {
			counts = append(counts, n)
		}
		// selection of 5 largest
		var top5 int64
		for k := 0; k < 5; k++ {
			mi, mv := -1, int64(-1)
			for i, v := range counts {
				if v > mv {
					mi, mv = i, v
				}
			}
			if mi < 0 {
				break
			}
			top5 += mv
			counts[mi] = -1
		}
		return c.TopK(5) >= top5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// profiled builds and profiles a loop program: main(n) sums table[i&3]
// over n iterations, with a store to a second object every 16 iterations.
func profiled(t *testing.T, n int64) (*ir.Program, *Profile) {
	t.Helper()
	pb := ir.NewProgramBuilder("p")
	tab := pb.ReadOnlyObject("tab", []int64{4, 5, 6, 7})
	buf := pb.Object("buf", 8, nil)
	f := pb.Func("main", 1)
	entry := f.NewBlock()
	head := f.NewBlock()
	body := f.NewBlock()
	st := f.NewBlock()
	latch := f.NewBlock()
	exit := f.NewBlock()
	i, s, base, v, tmp, bb := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	entry.MovI(i, 0)
	entry.MovI(s, 0)
	entry.Lea(base, tab, 0)
	head.Bge(i, f.Param(0), exit.ID())
	body.AndI(v, i, 3)
	body.Add(v, base, v)
	body.Ld(v, v, 0, tab)
	body.Add(s, s, v)
	body.AndI(tmp, i, 15)
	body.BneI(tmp, 15, latch.ID())
	st.Lea(bb, buf, 0)
	st.AndI(tmp, s, 7)
	st.Add(bb, bb, tmp)
	st.St(bb, 0, s, buf)
	latch.AddI(i, i, 1)
	latch.Jmp(head.ID())
	exit.Ret(s)
	p := pb.Build()
	ir.MustVerify(p)
	pr := NewProfiler(p)
	m := emu.New(p)
	m.Trace = pr.Tracer()
	if _, err := m.Run(n); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p, pr.Finish()
}

func TestExecCounts(t *testing.T) {
	p, prof := profiled(t, 64)
	// body[0] executes 64 times.
	ref := ir.InstrRef{Func: 0, Block: 2, Index: 0}
	if got := prof.Exec(ref); got != 64 {
		t.Fatalf("exec = %d, want 64", got)
	}
	if prof.BlockExec(0, 2) != 64 {
		t.Fatal("block exec")
	}
	if prof.TotalDyn != countDyn(t, p, 64) {
		t.Fatalf("TotalDyn = %d", prof.TotalDyn)
	}
}

func countDyn(t *testing.T, p *ir.Program, arg int64) int64 {
	m := emu.New(p)
	if _, err := m.Run(arg); err != nil {
		t.Fatal(err)
	}
	return m.Stats.DynInstrs
}

func TestInvarianceOfNarrowDomain(t *testing.T) {
	_, prof := profiled(t, 256)
	// The load in body has only 4 distinct (addr, value) tuples.
	ld := ir.InstrRef{Func: 0, Block: 2, Index: 2}
	if inv := prof.Invariance(ld, 5); inv < 0.99 {
		t.Fatalf("load invariance = %f, want ~1", inv)
	}
	if d := prof.Distinct(ld); d != 4 {
		t.Fatalf("distinct tuples = %d, want 4", d)
	}
	// The accumulator add (s, s, v) has unique left operand each time.
	acc := ir.InstrRef{Func: 0, Block: 2, Index: 3}
	if inv := prof.Invariance(acc, 5); inv > 0.5 {
		t.Fatalf("accumulator invariance = %f, want low", inv)
	}
}

// TestUnknownFunctionQueries: a reference to a function the program does
// not have reads as never profiled rather than indexing the tables at -1.
func TestUnknownFunctionQueries(t *testing.T) {
	_, prof := profiled(t, 16)
	ref := ir.InstrRef{Func: 99, Block: 0, Index: 0}
	if prof.Exec(ref) != 0 || prof.Invariance(ref, InvariantK) != 0 ||
		prof.Distinct(ref) != 0 || prof.MemReuse(ref) != 0 || prof.TakenRatio(ref) != 0 {
		t.Fatal("unknown function reported a profile")
	}
}

func TestMemReuseRatio(t *testing.T) {
	_, prof := profiled(t, 256)
	ld := ir.InstrRef{Func: 0, Block: 2, Index: 2}
	// tab is read-only: every re-execution sees unchanged memory.
	if mr := prof.MemReuse(ld); mr < 0.99 {
		t.Fatalf("mem reuse = %f, want ~1", mr)
	}
}

func TestTakenRatioAndEdgeWeight(t *testing.T) {
	_, prof := profiled(t, 256)
	// body's BneI (index 5) is taken 15/16 of the time.
	br := ir.InstrRef{Func: 0, Block: 2, Index: 5}
	tr := prof.TakenRatio(br)
	if tr < 0.90 || tr > 0.95 {
		t.Fatalf("taken ratio = %f, want 15/16", tr)
	}
	taken := prof.EdgeWeight(br, true)
	fall := prof.EdgeWeight(br, false)
	if taken+fall != 256 || fall != 16 {
		t.Fatalf("edge weights taken=%d fall=%d", taken, fall)
	}
}

func TestLoopProfileRecurrence(t *testing.T) {
	// Loop invocations via repeated calls with recurring args.
	pb := ir.NewProgramBuilder("lp")
	tab := pb.ReadOnlyObject("tab", []int64{1, 2, 3, 4, 5, 6, 7, 8})
	g := pb.Func("scan", 1)
	ge := g.NewBlock()
	gh := g.NewBlock()
	gb := g.NewBlock()
	gl := g.NewBlock()
	gx := g.NewBlock()
	s, i, base, v := g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg()
	ge.MovI(s, 0)
	ge.MovI(i, 0)
	ge.Lea(base, tab, 0)
	gh.Bge(i, g.Param(0), gx.ID())
	gb.Add(v, base, i)
	gb.Ld(v, v, 0, tab)
	gb.Add(s, s, v)
	gl.AddI(i, i, 1)
	gl.Jmp(gh.ID())
	gx.Ret(s)
	f := pb.Func("main", 1)
	pb.SetMain(f.ID())
	e := f.NewBlock()
	h := f.NewBlock()
	bo := f.NewBlock()
	x := f.NewBlock()
	k, acc, r, ln := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	e.MovI(k, 0)
	e.MovI(acc, 0)
	h.Bge(k, f.Param(0), x.ID())
	bo.AndI(ln, k, 3)
	bo.AddI(ln, ln, 2) // lengths 2..5, recurring
	bo.Call(r, g.ID(), ln)
	bo.Add(acc, acc, r)
	bo.AddI(k, k, 1)
	bo.Jmp(h.ID())
	x.Ret(acc)
	p := pb.Build()
	ir.MustVerify(p)
	pr := NewProfiler(p)
	m := emu.New(p)
	m.Trace = pr.Tracer()
	if _, err := m.Run(64); err != nil {
		t.Fatal(err)
	}
	prof := pr.Finish()
	lp := prof.Loop(g.ID(), 1)
	if lp == nil {
		t.Fatal("no loop profile for scan's loop")
	}
	if lp.Invocations != 64 {
		t.Fatalf("invocations = %d, want 64", lp.Invocations)
	}
	// Lengths cycle 2,3,4,5 — every invocation beyond the first four
	// matches a record in the 8-deep history.
	if lp.ReuseOpportunity() < 0.9 {
		t.Fatalf("reuse opportunity = %f", lp.ReuseOpportunity())
	}
	if lp.MultiIterRatio() != 1.0 {
		t.Fatalf("multi-iteration ratio = %f", lp.MultiIterRatio())
	}
}

func TestLoopProfileMemoryBreaksRecurrence(t *testing.T) {
	// A loop over a table whose contents change between every invocation
	// must show no reuse opportunity.
	pb := ir.NewProgramBuilder("mem")
	tab := pb.Object("tab", 4, []int64{1, 2, 3, 4})
	g := pb.Func("scan", 0)
	ge := g.NewBlock()
	gh := g.NewBlock()
	gb := g.NewBlock()
	gl := g.NewBlock()
	gx := g.NewBlock()
	s, i, base, v := g.NewReg(), g.NewReg(), g.NewReg(), g.NewReg()
	ge.MovI(s, 0)
	ge.MovI(i, 0)
	ge.Lea(base, tab, 0)
	gh.BgeI(i, 4, gx.ID())
	gb.Add(v, base, i)
	gb.Ld(v, v, 0, tab)
	gb.Add(s, s, v)
	gl.AddI(i, i, 1)
	gl.Jmp(gh.ID())
	gx.Ret(s)
	f := pb.Func("main", 1)
	pb.SetMain(f.ID())
	e := f.NewBlock()
	h := f.NewBlock()
	bo := f.NewBlock()
	x := f.NewBlock()
	k, acc, r, p0 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	e.MovI(k, 0)
	e.MovI(acc, 0)
	h.Bge(k, f.Param(0), x.ID())
	bo.Call(r, g.ID())
	bo.Add(acc, acc, r)
	bo.Lea(p0, tab, 0)
	bo.St(p0, 0, k, tab) // mutate before next invocation
	bo.AddI(k, k, 1)
	bo.Jmp(h.ID())
	x.Ret(acc)
	p := pb.Build()
	ir.MustVerify(p)
	pr := NewProfiler(p)
	m := emu.New(p)
	m.Trace = pr.Tracer()
	if _, err := m.Run(32); err != nil {
		t.Fatal(err)
	}
	lp := pr.Finish().Loop(g.ID(), 1)
	if lp == nil || lp.Invocations != 32 {
		t.Fatalf("loop profile: %+v", lp)
	}
	if lp.ReuseOpportunity() > 0.05 {
		t.Fatalf("mutating table must kill recurrence: %f", lp.ReuseOpportunity())
	}
}

// TestDebugHistoryMinInt64 records a loop invocation whose used input is
// math.MinInt64 and checks that the dump prints it in full.
func TestDebugHistoryMinInt64(t *testing.T) {
	pb := ir.NewProgramBuilder("minint")
	f := pb.Func("main", 1)
	entry := f.NewBlock()
	head := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	i, s := f.NewReg(), f.NewReg()
	entry.MovI(i, 0)
	entry.MovI(s, 0)
	head.BgeI(i, 4, exit.ID())
	body.Add(s, s, f.Param(0))
	body.AddI(i, i, 1)
	body.Jmp(head.ID())
	exit.Ret(s)
	p := pb.Build()
	ir.MustVerify(p)
	pr := NewProfiler(p)
	m := emu.New(p)
	m.Trace = pr.Tracer()
	if _, err := m.Run(math.MinInt64); err != nil {
		t.Fatal(err)
	}
	pr.Finish()
	got := pr.DebugHistory(0, head.ID())
	want := "r1=-9223372036854775808"
	if !strings.Contains(got, want) {
		t.Fatalf("DebugHistory = %q, want it to contain %q", got, want)
	}
}
