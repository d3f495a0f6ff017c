package chaos_test

import (
	"testing"

	"ccr/internal/chaos"
	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/oracle"
)

// buildStatelessProg hand-assembles a transformed program with one
// stateless acyclic region whose live-out feeds both the final result and
// a store stream, so an injected fault surfaces in several digest
// components:
//
//	main(n):
//	  b0: k=0; acc=0
//	  b1: if k>=n goto b7
//	  b2: sel = k & 3
//	  b3: REUSE region0 → b5
//	  b4: x = sel*3; x = x+7     (region body; x live-out, end marker)
//	  b5: acc += x; out[0] = acc (continuation, store outside the region)
//	  b6: k++; goto b1
//	  b7: ret acc
func buildStatelessProg(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("chaos-stateless")
	out := pb.Object("out", 1, []int64{0})
	f := pb.Func("main", 1)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()
	b5 := f.NewBlock()
	b6 := f.NewBlock()
	b7 := f.NewBlock()
	k, acc, sel, x, ptr := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b0.MovI(k, 0)
	b0.MovI(acc, 0)
	b1.Bge(k, f.Param(0), b7.ID())
	b2.AndI(sel, k, 3)
	b3.Emit(ir.Instr{Op: ir.Reuse, Region: 0, Target: b5.ID(), Mem: ir.NoMem})
	mul := b4.MulI(x, sel, 3)
	mul.Region = 0
	mul.Attr |= ir.AttrLiveOut
	add := b4.AddI(x, x, 7)
	add.Region = 0
	add.Attr |= ir.AttrLiveOut | ir.AttrRegionEnd
	b5.Add(acc, acc, x)
	b5.Lea(ptr, out, 0)
	b5.St(ptr, 0, acc, out)
	b6.AddI(k, k, 1)
	b6.Jmp(b1.ID())
	b7.Ret(acc)
	p := pb.Build()
	p.Regions = []*ir.Region{{
		ID: 0, Func: f.ID(), Class: ir.Stateless, Kind: ir.Acyclic,
		Inception: b3.ID(), Body: b4.ID(), Continuation: b5.ID(),
		Inputs: []ir.Reg{sel}, Outputs: []ir.Reg{x}, StaticSize: 2,
	}}
	p.Link()
	return ir.MustVerify(p)
}

// buildMemDepProg is the invalidation scenario: a memory-dependent region
// loads tab[sel], and every 16th iteration a store mutates tab[1] followed
// by the compiler-placed Inval. Dropping the invalidation or resurrecting
// an invalidated instance makes the region return stale loads.
func buildMemDepProg(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("chaos-memdep")
	tab := pb.Object("tab", 4, []int64{10, 20, 30, 40})
	f := pb.Func("main", 1)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()
	b5 := f.NewBlock()
	b6 := f.NewBlock()
	bm := f.NewBlock()
	b7 := f.NewBlock()
	k, acc, sel, x, ptr := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b0.MovI(k, 0)
	b0.MovI(acc, 0)
	b1.Bge(k, f.Param(0), b7.ID())
	b2.AndI(sel, k, 3)
	b3.Emit(ir.Instr{Op: ir.Reuse, Region: 0, Target: b5.ID(), Mem: ir.NoMem})
	lea := b4.LeaIdx(ptr, tab, sel, 0)
	lea.Region = 0
	ld := b4.Ld(x, ptr, 0, tab)
	ld.Region = 0
	ld.Attr |= ir.AttrDeterminable | ir.AttrLiveOut
	end := b4.AddI(x, x, 0)
	end.Region = 0
	end.Attr |= ir.AttrLiveOut | ir.AttrRegionEnd
	b5.Add(acc, acc, x)
	tail := f.NewReg()
	b6.AndI(tail, k, 15)
	b6.AddI(k, k, 1)
	b6.BneI(tail, 15, b1.ID())
	bm.Lea(ptr, tab, 1)
	bm.St(ptr, 0, k, tab)
	bm.Emit(ir.Instr{Op: ir.Inval, Mem: tab})
	bm.Jmp(b1.ID())
	b7.Ret(acc)
	p := pb.Build()
	p.Regions = []*ir.Region{{
		ID: 0, Func: f.ID(), Class: ir.MemoryDependent, Kind: ir.Acyclic,
		Inception: b3.ID(), Body: b4.ID(), Continuation: b5.ID(),
		Inputs: []ir.Reg{sel}, Outputs: []ir.Reg{x},
		MemObjects: []ir.MemID{tab}, StaticSize: 3,
	}}
	p.Link()
	return ir.MustVerify(p)
}

// digest runs p with the given reuse buffer (nil = CRB off) and returns
// its architectural digest.
func digest(t *testing.T, p *ir.Program, buf emu.ReuseBuffer, n int64) oracle.Digest {
	t.Helper()
	m := emu.New(p)
	if buf != nil {
		m.CRB = buf
	}
	var col oracle.Collector
	col.Attach(m)
	res, err := m.Run(n)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return col.Finish(res, m.Mem)
}

func crbConfig() crb.Config { return crb.Config{Entries: 8, Instances: 4} }

// TestOracleDetectsEveryFaultClass is the non-vacuousness proof of the
// transparency oracle: for every injectable fault class, a seeded injector
// perturbs at least one operation and the differential check reports a
// divergence against the CRB-off reference run.
func TestOracleDetectsEveryFaultClass(t *testing.T) {
	for _, fault := range chaos.AllFaults {
		fault := fault
		t.Run(fault.String(), func(t *testing.T) {
			var p *ir.Program
			var n int64
			switch fault {
			case chaos.DropInvalidation, chaos.StaleMemValid:
				p, n = buildMemDepProg(t), 128
			default:
				p, n = buildStatelessProg(t), 100
			}
			ref := digest(t, p, nil, n)
			inj := chaos.Wrap(crb.New(crbConfig(), p), chaos.Config{Fault: fault, Seed: 1})
			got := digest(t, p, inj, n)
			if st := inj.Stats(); st.Injected == 0 {
				t.Fatalf("injector never fired (eligible %d)", st.Eligible)
			}
			err := oracle.Compare(ref, got)
			if err == nil {
				t.Fatalf("oracle missed fault %v: digest %+v", fault, got)
			}
			t.Logf("detected: %v", err)
		})
	}
}

// TestCleanRunsPassTheOracle is the control: without faults — a bare CRB
// and a None-configured injector — the transparency check holds, and the
// injector is bit-transparent (identical digest to the bare CRB, trace
// checksum included).
func TestCleanRunsPassTheOracle(t *testing.T) {
	for _, build := range []struct {
		name string
		prog func(*testing.T) *ir.Program
		n    int64
	}{
		{"stateless", buildStatelessProg, 100},
		{"memdep", buildMemDepProg, 128},
	} {
		t.Run(build.name, func(t *testing.T) {
			p := build.prog(t)
			ref := digest(t, p, nil, build.n)
			clean := digest(t, p, crb.New(crbConfig(), p), build.n)
			if err := oracle.Compare(ref, clean); err != nil {
				t.Fatalf("clean CRB run diverged: %v", err)
			}
			inj := chaos.Wrap(crb.New(crbConfig(), p), chaos.Config{Fault: chaos.None, Seed: 1})
			none := digest(t, p, inj, build.n)
			if err := oracle.Compare(ref, none); err != nil {
				t.Fatalf("None injector diverged: %v", err)
			}
			if !none.Equal(clean) {
				t.Fatalf("None injector not bit-transparent:\nclean %+v\nnone  %+v", clean, none)
			}
			if st := inj.Stats(); st.Injected != 0 {
				t.Fatalf("None injector injected %d faults", st.Injected)
			}
		})
	}
}

// TestInjectionRateSampling checks the seeded Rate gate: at Rate 0.5 the
// injector fires on some but not all eligible operations, and the same
// seed reproduces the same schedule.
func TestInjectionRateSampling(t *testing.T) {
	p := buildStatelessProg(t)
	run := func(seed uint64) (chaos.Stats, oracle.Digest) {
		inj := chaos.Wrap(crb.New(crbConfig(), p), chaos.Config{
			Fault: chaos.EvictDuringRead, Seed: seed, Rate: 0.5,
		})
		d := digest(t, p, inj, 400)
		return inj.Stats(), d
	}
	st, d1 := run(7)
	if st.Injected == 0 || st.Injected == st.Eligible {
		t.Fatalf("rate 0.5 should fire on some but not all: %+v", st)
	}
	st2, d2 := run(7)
	if st != st2 || !d1.Equal(d2) {
		t.Fatalf("same seed not reproducible: %+v vs %+v", st, st2)
	}
}
