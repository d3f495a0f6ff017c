package uarch

import (
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
)

// timeWith runs p under a given configuration.
func timeWith(t *testing.T, cfg Config, p *ir.Program, args ...int64) (Stats, int64) {
	t.Helper()
	m := emu.New(p)
	sim := NewSimulator(cfg, p)
	sim.Attach(m)
	res, err := m.Run(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return sim.Stats(), res
}

// buildRepetitiveKernel: main(n) repeatedly computes a multiply chain on a
// 4-value input. The chain sits in its own basic block whose only
// upward-exposed input is the narrow selector, so instruction-, block- and
// region-level reuse can all capture it; the loop bookkeeping lives in
// separate blocks.
func buildRepetitiveKernel(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("rk")
	f := pb.Func("main", 1)
	e := f.NewBlock()
	h := f.NewBlock()
	bSel := f.NewBlock()
	bKern := f.NewBlock()
	bAcc := f.NewBlock()
	x := f.NewBlock()
	k, acc, sel, v := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	e.MovI(k, 0)
	e.MovI(acc, 0)
	h.Bge(k, f.Param(0), x.ID())
	bSel.AndI(sel, k, 3)
	bSel.Nop() // keep the selector block separate from the kernel block
	bKern.MulI(v, sel, 3)
	bKern.MulI(v, v, 5)
	bKern.MulI(v, v, 7)
	bKern.AddI(v, v, 9)
	bKern.XorI(v, v, 1)
	bKern.Nop()
	bAcc.Add(acc, acc, v)
	bAcc.AddI(k, k, 1)
	bAcc.Jmp(h.ID())
	x.Ret(acc)
	return ir.MustVerify(pb.Build())
}

func TestInstrReuseBaselineSpeedsUp(t *testing.T) {
	p := buildRepetitiveKernel(t)
	base, baseRes := timeWith(t, DefaultConfig(), p, 2048)
	cfg := DefaultConfig()
	cfg.InstrReuse = true
	rb, rbRes := timeWith(t, cfg, p, 2048)
	if rbRes != baseRes {
		t.Fatalf("instruction reuse changed the result: %d vs %d", rbRes, baseRes)
	}
	if rb.InstrReuseHits == 0 {
		t.Fatal("no instruction-reuse hits on a repetitive kernel")
	}
	if rb.Cycles >= base.Cycles {
		t.Fatalf("instruction reuse did not help: %d vs %d cycles", rb.Cycles, base.Cycles)
	}
}

func TestBlockReuseBaselineSpeedsUp(t *testing.T) {
	p := buildRepetitiveKernel(t)
	base, baseRes := timeWith(t, DefaultConfig(), p, 2048)
	cfg := DefaultConfig()
	cfg.BlockReuse = true
	br, brRes := timeWith(t, cfg, p, 2048)
	if brRes != baseRes {
		t.Fatalf("block reuse changed the result: %d vs %d", brRes, baseRes)
	}
	if br.BlockReuseHits == 0 {
		t.Fatal("no block-reuse hits")
	}
	if br.Cycles >= base.Cycles {
		t.Fatalf("block reuse did not help: %d vs %d cycles", br.Cycles, base.Cycles)
	}
	// The kernel block (b2) has 7 instructions; hits skip all of them.
	perHit := float64(br.BlockReuseInstrs) / float64(br.BlockReuseHits)
	if perHit < 6 {
		t.Fatalf("reused %f instructions per block hit", perHit)
	}
}

// TestBaselineLoadInvalidation: stores must invalidate load-carrying
// entries in both baselines.
func TestBaselineLoadInvalidation(t *testing.T) {
	pb := ir.NewProgramBuilder("bl")
	tab := pb.Object("tab", 4, []int64{5, 6, 7, 8})
	f := pb.Func("main", 1)
	e := f.NewBlock()
	h := f.NewBlock()
	b := f.NewBlock()
	x := f.NewBlock()
	k, acc, sel, v, p0 := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	e.MovI(k, 0)
	e.MovI(acc, 0)
	h.Bge(k, f.Param(0), x.ID())
	b.AndI(sel, k, 3)
	b.LeaIdx(p0, tab, sel, 0)
	b.Ld(v, p0, 0, tab)
	b.Add(acc, acc, v)
	b.Lea(p0, tab, 2)
	b.St(p0, 0, k, tab) // mutate every iteration
	b.AddI(k, k, 1)
	b.Jmp(h.ID())
	x.Ret(acc)
	p := ir.MustVerify(pb.Build())
	for _, mode := range []string{"instr", "block"} {
		cfg := DefaultConfig()
		if mode == "instr" {
			cfg.InstrReuse = true
		} else {
			cfg.BlockReuse = true
		}
		_, got := timeWith(t, cfg, p, 256)
		_, want := timeWith(t, DefaultConfig(), p, 256)
		if got != want {
			t.Fatalf("%s reuse changed results under stores: %d vs %d", mode, got, want)
		}
	}
}

func TestBlockReuseIneligibleBlocks(t *testing.T) {
	// Blocks containing stores or calls must never be block-reused.
	pb := ir.NewProgramBuilder("in")
	buf := pb.Object("buf", 4, nil)
	f := pb.Func("main", 1)
	e := f.NewBlock()
	h := f.NewBlock()
	b := f.NewBlock()
	x := f.NewBlock()
	k, p0 := f.NewReg(), f.NewReg()
	e.MovI(k, 0)
	h.Bge(k, f.Param(0), x.ID())
	b.Lea(p0, buf, 0)
	b.St(p0, 0, k, buf)
	b.AddI(k, k, 1)
	b.Jmp(h.ID())
	x.Ret(k)
	p := ir.MustVerify(pb.Build())
	cfg := DefaultConfig()
	cfg.BlockReuse = true
	st, _ := timeWith(t, cfg, p, 128)
	if st.BlockReuseHits != 0 {
		t.Fatalf("store-carrying block reused %d times", st.BlockReuseHits)
	}
}

// TestBlockReuseSelfLoop: after a block-reuse hit on a block that branches
// back to its own start, every later iteration is looked up again rather
// than swallowed by the skip. main(5) runs the two-instruction self-loop
// L: k++; if k < n goto L three times; the first pass records the five
// signatures k=0..4 and each later pass hits all five (the surrounding
// blocks store or see fresh inputs, so they never hit).
func TestBlockReuseSelfLoop(t *testing.T) {
	pb := ir.NewProgramBuilder("selfloop")
	obj := pb.Object("o", 1, nil)
	f := pb.Func("main", 1)
	entry, outer, loop, latch, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	j, k, base := f.NewReg(), f.NewReg(), f.NewReg()
	entry.MovI(j, 0)
	entry.Lea(base, obj, 0)
	outer.St(base, 0, j, obj)
	outer.MovI(k, 0)
	loop.AddI(k, k, 1)
	loop.Blt(k, f.Param(0), loop.ID())
	latch.AddI(j, j, 1)
	latch.BltI(j, 3, outer.ID())
	exit.Ret(k)
	p := ir.MustVerify(pb.Build())

	cfg := DefaultConfig()
	cfg.BlockReuse = true
	st, res := timeWith(t, cfg, p, 5)
	if res != 5 {
		t.Fatalf("result %d, want 5", res)
	}
	if st.BlockReuseHits != 10 || st.BlockReuseInstrs != 20 {
		t.Fatalf("block reuse: %d hits covering %d instrs, want 10 covering 20",
			st.BlockReuseHits, st.BlockReuseInstrs)
	}
}
