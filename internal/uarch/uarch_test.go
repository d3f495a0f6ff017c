package uarch

import (
	"math/rand"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
)

func TestCacheDirectMapped(t *testing.T) {
	c := newCache(1024, 32, 0) // 32 lines
	if c.access(0) {
		t.Fatal("cold miss expected")
	}
	if !c.access(0) || !c.access(31) {
		t.Fatal("same line must hit")
	}
	if c.access(32) {
		t.Fatal("next line is cold")
	}
	// Address 1024 maps to line index 0 again and evicts address 0.
	if c.access(1024) {
		t.Fatal("conflicting line is cold")
	}
	if c.access(0) {
		t.Fatal("address 0 should have been evicted")
	}
}

func TestBTBTwoBitCounter(t *testing.T) {
	pc, tgt := int64(0x40), int64(0x80)
	b := newBTB(newBTBLayout(16, []int64{pc}))
	if taken, _ := b.predict(0, pc); taken {
		t.Fatal("unknown branch predicts not-taken")
	}
	b.update(0, pc, true, tgt) // allocates with counter 2 (weakly taken)
	if taken, gotTgt := b.predict(0, pc); !taken || gotTgt != tgt {
		t.Fatal("after one taken update, predict taken with target")
	}
	b.update(0, pc, false, 0) // 2 → 1
	if taken, _ := b.predict(0, pc); taken {
		t.Fatal("counter should have decayed below threshold")
	}
	b.update(0, pc, true, tgt) // 1 → 2
	b.update(0, pc, true, tgt) // 2 → 3 (saturates)
	b.update(0, pc, true, tgt)
	b.update(0, pc, false, 0) // 3 → 2: still predicts taken (hysteresis)
	if taken, _ := b.predict(0, pc); !taken {
		t.Fatal("saturating counter should keep predicting taken")
	}
}

// fullBTB is the BTB at full size: every one of its entries exists, and
// branch i uses entry (pcs[i]>>2)&(entries-1) directly.
func fullBTB(entries int, pcs []int64) btb {
	b := btb{slot: make([]int32, len(pcs)), entries: make([]btbEntry, entries)}
	for i, pc := range pcs {
		b.slot[i] = int32((pc >> 2) & int64(entries-1))
	}
	return b
}

// TestBoundedTablesMatchFull drives a BTB and a cache built to what a
// program reaches and the same tables at full size with one random stream
// of in-range addresses, and requires every answer to agree. The BTB gets
// a slot per distinct index of a random set of branches; the cases cover
// text far shorter than the tables, text longer than them (every set
// aliases, so the bounded cache is the full one), more branches than BTB
// entries (branches share slots) and sizes that are not powers of two.
func TestBoundedTablesMatchFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		entries, cacheBytes int
		span                int64 // bytes of text (BTB, I-cache) or data
		branches            int   // conditional branches in the text
		bounded             bool  // the span leaves cache sets unreachable
	}{
		{4096, 32 << 10, 4 * 250, 11, true},
		{4096, 32 << 10, 4 * 2450, 117, true},
		{4096, 1 << 10, 4 * 2420, 2420, false},
		{64, 1 << 10, 4 * 2420, 117, false},
		{16, 1 << 10, 4 * 2420, 117, false},
		{100, 1000, 4 * 77, 20, true},
		{16, 64, 4, 1, true},
	} {
		pcs := make([]int64, 0, tc.branches)
		for _, w := range rng.Perm(int(tc.span / 4))[:tc.branches] {
			pcs = append(pcs, 4*int64(w))
		}
		l := newBTBLayout(tc.entries, pcs)
		fullB, boundB := fullBTB(tc.entries, pcs), newBTB(l)
		fullC, boundC := newCache(tc.cacheBytes, 32, 0), newCache(tc.cacheBytes, 32, tc.span)
		named := map[int32]bool{}
		for _, s := range fullB.slot {
			named[s] = true
		}
		if len(boundB.entries) != len(named) {
			t.Errorf("%+v: BTB has %d entries, its branches name %d", tc, len(boundB.entries), len(named))
		}
		if shorter := len(boundC.tags) < len(fullC.tags); shorter != tc.bounded {
			t.Errorf("%+v: cache has %d of %d sets", tc, len(boundC.tags), len(fullC.tags))
		}
		for i := 0; i < 20000; i++ {
			br := int32(rng.Intn(len(pcs)))
			pc := pcs[br]
			ft, ftgt := fullB.predict(br, pc)
			bt, btgt := boundB.predict(br, pc)
			if ft != bt || ftgt != btgt {
				t.Fatalf("%+v: step %d: predict(%d) = %v,%d bounded, %v,%d full", tc, i, pc, bt, btgt, ft, ftgt)
			}
			taken, target := rng.Intn(2) == 0, 4*rng.Int63n(tc.span/4)
			fullB.update(br, pc, taken, target)
			boundB.update(br, pc, taken, target)
			addr := rng.Int63n(tc.span)
			if f, b := fullC.access(addr), boundC.access(addr); f != b {
				t.Fatalf("%+v: step %d: access(%d) = %v bounded, %v full", tc, i, addr, b, f)
			}
		}
	}
}

// sumArray builds a loop that sums an n-word array: its loads, its loop
// branch and its text exercise the D-cache, the BTB and the I-cache.
func sumArray(n int64) *ir.Program {
	pb := ir.NewProgramBuilder("sum")
	init := make([]int64, n)
	for i := range init {
		init[i] = int64(i + 1)
	}
	a := pb.Object("a", n, init)
	f := pb.Func("main", 1)
	e, h, body, x := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	k, acc, ptr, v := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	e.MovI(k, 0)
	e.MovI(acc, 0)
	h.Bge(k, f.Param(0), x.ID())
	body.LeaIdx(ptr, a, k, 0)
	body.Ld(v, ptr, 0, a)
	body.Add(acc, acc, v)
	body.AddI(k, k, 1)
	body.Jmp(h.ID())
	x.Ret(acc)
	return ir.MustVerify(pb.Build())
}

// TestSimulatorTablesFollowProgram checks the bounds NewSimulator and
// Attach derive — a BTB of one entry per conditional branch and caches that stop
// at the last line of the text or the data image, for a program smaller
// than the tables, and the full tables for one larger than them — and
// that a run on the bounded tables times exactly as one on full ones.
func TestSimulatorTablesFollowProgram(t *testing.T) {
	p := sumArray(100)
	m := emu.New(p)
	sim := NewSimulator(DefaultConfig(), p)
	sim.Attach(m)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	bounded := sim.Stats()
	if got, want := len(sim.btb.entries), len(sim.tab.brPCs); got != want || want != 1 {
		t.Errorf("BTB has %d entries, want one per conditional branch (%d)", got, want)
	}
	if got, want := len(sim.icache.tags), (4*p.TextLen-1)/32+1; got != want {
		t.Errorf("I-cache has %d sets, want %d", got, want)
	}
	if got, want := len(sim.dcache.tags), int((8*p.MemWords-1)/32+1); got != want {
		t.Errorf("D-cache has %d sets, want %d", got, want)
	}

	cfg := DefaultConfig()
	m = emu.New(p)
	sim = NewSimulator(cfg, p)
	sim.Attach(m)
	sim.btb = fullBTB(cfg.BTBEntries, sim.tab.brPCs)
	sim.icache = newCache(cfg.ICacheBytes, cfg.LineBytes, 0)
	sim.dcache = newCache(cfg.DCacheBytes, cfg.LineBytes, 0)
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if full := sim.Stats(); full != bounded {
		t.Errorf("bounded tables time %+v, full tables %+v", bounded, full)
	}

	small := DefaultConfig()
	small.BTBEntries, small.ICacheBytes, small.DCacheBytes = 2, 32, 32
	sim = NewSimulator(small, p)
	sim.Attach(m)
	if len(sim.btb.entries) != 1 || len(sim.icache.tags) != 1 || len(sim.dcache.tags) != 1 {
		t.Errorf("tables smaller than the program: %d BTB entries, %d I-cache and %d D-cache sets",
			len(sim.btb.entries), len(sim.icache.tags), len(sim.dcache.tags))
	}
}

// timeProgram runs prog through the emulator + simulator, returning stats.
func timeProgram(t *testing.T, p *ir.Program, args ...int64) Stats {
	t.Helper()
	m := emu.New(p)
	sim := NewSimulator(DefaultConfig(), p)
	sim.Attach(m)
	if _, err := m.Run(args...); err != nil {
		t.Fatalf("run: %v", err)
	}
	return sim.Stats()
}

// TestDependentChainLatency: N dependent adds take ≥ N cycles; N
// independent adds take ≈ N/4 issue cycles (4 integer ALUs).
func TestDependencyVsParallelIssue(t *testing.T) {
	const n = 64
	// Both variants execute the same instruction count (so front-end
	// effects like cold I-cache misses are identical); only the
	// dependence structure differs.
	dep := func() *ir.Program {
		pb := ir.NewProgramBuilder("dep")
		f := pb.Func("main", 1)
		b := f.NewBlock()
		regs := make([]ir.Reg, n)
		for i := range regs {
			regs[i] = f.NewReg()
			b.MovI(regs[i], int64(i))
		}
		r := regs[0]
		for i := 0; i < n; i++ {
			b.AddI(r, r, 1)
		}
		b.Ret(r)
		return pb.Build()
	}()
	indep := func() *ir.Program {
		pb := ir.NewProgramBuilder("indep")
		f := pb.Func("main", 1)
		b := f.NewBlock()
		regs := make([]ir.Reg, n)
		for i := range regs {
			regs[i] = f.NewReg()
			b.MovI(regs[i], int64(i))
		}
		for i := 0; i < n; i++ {
			b.AddI(regs[i], regs[i], 1)
		}
		b.Ret(regs[0])
		return pb.Build()
	}()
	ds := timeProgram(t, dep, 0)
	is := timeProgram(t, indep, 0)
	if ds.Cycles < n {
		t.Fatalf("dependent chain of %d adds took %d cycles", n, ds.Cycles)
	}
	if is.Cycles >= ds.Cycles {
		t.Fatalf("independent adds (%d cycles) should be faster than dependent (%d)",
			is.Cycles, ds.Cycles)
	}
	// 4 ALUs: the 2n independent int ops need at least 2n/4 cycles.
	if is.Cycles < int64(2*n/4) {
		t.Fatalf("independent adds too fast: %d cycles for %d ops", is.Cycles, 2*n)
	}
}

// TestFPUnitContention: Mul issues to the 2 multi-cycle units, so 2·k
// independent multiplies need ≥ k issue slots on those units.
func TestFPUnitContention(t *testing.T) {
	const n = 32
	pb := ir.NewProgramBuilder("mul")
	f := pb.Func("main", 1)
	b := f.NewBlock()
	regs := make([]ir.Reg, n)
	for i := range regs {
		regs[i] = f.NewReg()
		b.MovI(regs[i], int64(i))
	}
	for i := range regs {
		b.MulI(regs[i], regs[i], 3)
	}
	b.Ret(regs[0])
	st := timeProgram(t, pb.Build(), 0)
	if st.Cycles < n/2 {
		t.Fatalf("%d independent muls on 2 units took only %d cycles", n, st.Cycles)
	}
}

// TestBranchMispredictCost: an unpredictable branch pattern costs far more
// than a monotone one.
func TestBranchMispredictCost(t *testing.T) {
	build := func(vals []int64) *ir.Program {
		pb := ir.NewProgramBuilder("br")
		tab := pb.ReadOnlyObject("tab", vals)
		f := pb.Func("main", 0)
		entry := f.NewBlock()
		head := f.NewBlock()
		body := f.NewBlock()
		skip := f.NewBlock()
		latch := f.NewBlock()
		exit := f.NewBlock()
		i, s, base, v := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
		entry.MovI(i, 0)
		entry.MovI(s, 0)
		entry.Lea(base, tab, 0)
		head.BgeI(i, int64(len(vals)), exit.ID())
		body.Add(v, base, i)
		body.Ld(v, v, 0, tab)
		body.BeqI(v, 0, latch.ID())
		skip.AddI(s, s, 1)
		latch.AddI(i, i, 1)
		latch.Jmp(head.ID())
		exit.Ret(s)
		return pb.Build()
	}
	n := 2048
	stable := make([]int64, n) // always 0: perfectly predictable
	alternating := make([]int64, n)
	for i := range alternating {
		// Pseudo-random pattern the 2-bit counters cannot learn.
		alternating[i] = int64((i*1103515245 + 12345) >> 7 & 1)
	}
	ss := timeProgram(t, build(stable))
	as := timeProgram(t, build(alternating))
	if as.Mispredicts <= ss.Mispredicts {
		t.Fatalf("alternating pattern should mispredict more: %d vs %d",
			as.Mispredicts, ss.Mispredicts)
	}
	if as.Cycles <= ss.Cycles {
		t.Fatalf("mispredictions must cost cycles: %d vs %d", as.Cycles, ss.Cycles)
	}
}

// TestDCacheMissCost: striding beyond the cache costs more than re-walking
// one line.
func TestDCacheMissCost(t *testing.T) {
	build := func(words, stride int64) *ir.Program {
		pb := ir.NewProgramBuilder("dc")
		tab := pb.ReadOnlyObject("tab", make([]int64, words))
		f := pb.Func("main", 0)
		entry := f.NewBlock()
		head := f.NewBlock()
		body := f.NewBlock()
		exit := f.NewBlock()
		i, s, base, v, idx := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
		entry.MovI(i, 0)
		entry.MovI(s, 0)
		entry.Lea(base, tab, 0)
		head.BgeI(i, 4096, exit.ID())
		body.MulI(idx, i, stride)
		body.AndI(idx, idx, words-1)
		body.Add(idx, base, idx)
		body.Ld(v, idx, 0, tab)
		body.Add(s, s, v)
		body.AddI(i, i, 1)
		body.Jmp(head.ID())
		exit.Ret(s)
		return pb.Build()
	}
	// 32 KB D-cache = 4096 words; a 64 K-word table at stride 7 misses
	// constantly, a 64-word table never misses after warmup.
	hot := timeProgram(t, build(64, 1))
	cold := timeProgram(t, build(64*1024, 7))
	if cold.DCacheMisses < hot.DCacheMisses+1000 {
		t.Fatalf("expected heavy D-cache misses: hot=%d cold=%d",
			hot.DCacheMisses, cold.DCacheMisses)
	}
	if cold.Cycles <= hot.Cycles {
		t.Fatalf("cache misses must cost cycles: %d vs %d", cold.Cycles, hot.Cycles)
	}
}

func TestIPCBounded(t *testing.T) {
	pb := ir.NewProgramBuilder("ipc")
	f := pb.Func("main", 1)
	b := f.NewBlock()
	r := f.NewReg()
	b.MovI(r, 1)
	b.Ret(r)
	st := timeProgram(t, pb.Build(), 0)
	if ipc := st.IPC(); ipc <= 0 || ipc > 6 {
		t.Fatalf("IPC %f outside (0, 6]", ipc)
	}
}

// TestOutOfOrderHidesLatency: the dynamically scheduled machine overlaps
// a dependent multiply chain across independent loop iterations, beating
// the in-order machine; both remain architecturally identical.
func TestOutOfOrderHidesLatency(t *testing.T) {
	pb := ir.NewProgramBuilder("ooo")
	f := pb.Func("main", 1)
	e := f.NewBlock()
	h := f.NewBlock()
	b := f.NewBlock()
	x := f.NewBlock()
	k, acc, v := f.NewReg(), f.NewReg(), f.NewReg()
	e.MovI(k, 0)
	e.MovI(acc, 0)
	h.Bge(k, f.Param(0), x.ID())
	// A 3-deep multiply chain per iteration, independent across
	// iterations except for the final accumulate.
	b.MulI(v, k, 3)
	b.MulI(v, v, 5)
	b.MulI(v, v, 7)
	b.Add(acc, acc, v)
	b.AddI(k, k, 1)
	b.Jmp(h.ID())
	x.Ret(acc)
	p := ir.MustVerify(pb.Build())

	inorder := timeProgram(t, p, 1024)
	cfg := DefaultConfig()
	cfg.OutOfOrder = true
	cfg.ROBSize = 64
	m := emu.New(p)
	sim := NewSimulator(cfg, p)
	sim.Attach(m)
	if _, err := m.Run(1024); err != nil {
		t.Fatal(err)
	}
	ooo := sim.Stats()
	if ooo.Cycles >= inorder.Cycles {
		t.Fatalf("out-of-order (%d) should beat in-order (%d) on independent chains",
			ooo.Cycles, inorder.Cycles)
	}
	if ooo.Instrs != inorder.Instrs {
		t.Fatalf("instruction counts differ: %d vs %d", ooo.Instrs, inorder.Instrs)
	}
}

// TestOutOfOrderROBBound: a tiny reorder buffer throttles the overlap.
func TestOutOfOrderROBBound(t *testing.T) {
	p := buildRepetitiveKernel(t)
	run := func(rob int) int64 {
		cfg := DefaultConfig()
		cfg.OutOfOrder = true
		cfg.ROBSize = rob
		m := emu.New(p)
		sim := NewSimulator(cfg, p)
		sim.Attach(m)
		if _, err := m.Run(2048); err != nil {
			t.Fatal(err)
		}
		return sim.Stats().Cycles
	}
	small, big := run(4), run(128)
	if big >= small {
		t.Fatalf("ROB 128 (%d cycles) should beat ROB 4 (%d cycles)", big, small)
	}
}
