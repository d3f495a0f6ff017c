package emu

import (
	"reflect"
	"testing"

	"ccr/internal/crb"
	"ccr/internal/ir"
)

// buildManualRegion hand-assembles a transformed program, pinning the
// architectural semantics of the CCR extensions independent of the
// compiler passes:
//
//	main(n):
//	  b0: k=0; acc=0
//	  b1: if k>=n goto b7
//	  b2: sel = k & mask
//	  b3: REUSE region0 → b5
//	  b4: x = sel*3; x = x+7   (region body; x live-out, end marker)
//	  b5: acc += x             (continuation)
//	  b6: k++; goto b1
//	  b7: ret acc
func buildManualRegion(t *testing.T, mask int64) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("manual")
	f := pb.Func("main", 1)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()
	b5 := f.NewBlock()
	b6 := f.NewBlock()
	b7 := f.NewBlock()
	k, acc, sel, x := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b0.MovI(k, 0)
	b0.MovI(acc, 0)
	b1.Bge(k, f.Param(0), b7.ID())
	b2.AndI(sel, k, mask)
	b3.Emit(ir.Instr{Op: ir.Reuse, Region: 0, Target: b5.ID(), Mem: ir.NoMem})
	mul := b4.MulI(x, sel, 3)
	mul.Region = 0
	mul.Attr |= ir.AttrLiveOut
	add := b4.AddI(x, x, 7)
	add.Region = 0
	add.Attr |= ir.AttrLiveOut | ir.AttrRegionEnd
	b5.Add(acc, acc, x)
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

func TestMemoizationRecordsAndReuses(t *testing.T) {
	p := buildManualRegion(t, 3)
	m := New(p)
	m.CRB = crb.New(crb.Config{Entries: 8, Instances: 4}, p)
	got, err := m.Run(100)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Expected: sum over k of ((k&3)*3+7).
	var want int64
	for k := int64(0); k < 100; k++ {
		want += (k&3)*3 + 7
	}
	if got != want {
		t.Fatalf("result %d, want %d", got, want)
	}
	// Four distinct selectors: 4 misses, 96 hits.
	if m.Stats.ReuseMisses != 4 || m.Stats.ReuseHits != 96 {
		t.Fatalf("hits=%d misses=%d, want 96/4", m.Stats.ReuseHits, m.Stats.ReuseMisses)
	}
	// Each hit skips the 2-instruction body.
	if m.Stats.ReusedInstrs != 96*2 {
		t.Fatalf("reused instrs = %d", m.Stats.ReusedInstrs)
	}
	rs := m.Stats.Regions[0]
	if rs == nil || rs.Records != 4 {
		t.Fatalf("region stats: %+v", rs)
	}
}

func TestInstanceCapacityEviction(t *testing.T) {
	// Eight distinct selectors but only 2 instances: LRU round-robin
	// means (almost) every lookup misses.
	p := buildManualRegion(t, 7)
	m := New(p)
	m.CRB = crb.New(crb.Config{Entries: 8, Instances: 2}, p)
	if _, err := m.Run(64); err != nil {
		t.Fatal(err)
	}
	if m.Stats.ReuseHits != 0 {
		t.Fatalf("round-robin over capacity should never hit, got %d", m.Stats.ReuseHits)
	}
	// With 8 instances everything after warmup hits.
	m2 := New(p)
	m2.CRB = crb.New(crb.Config{Entries: 8, Instances: 8}, p)
	if _, err := m2.Run(64); err != nil {
		t.Fatal(err)
	}
	if m2.Stats.ReuseHits != 64-8 {
		t.Fatalf("hits = %d, want 56", m2.Stats.ReuseHits)
	}
}

func TestNilCRBAlwaysMisses(t *testing.T) {
	p := buildManualRegion(t, 3)
	m := New(p)
	got, err := m.Run(50)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for k := int64(0); k < 50; k++ {
		want += (k&3)*3 + 7
	}
	if got != want {
		t.Fatalf("result %d, want %d", got, want)
	}
	if m.Stats.ReuseHits != 0 || m.Stats.ReuseMisses != 50 {
		t.Fatalf("stats: %+v", m.Stats)
	}
}

// buildExitRegion adds a side exit: when sel == 0 the body branches out of
// the region (abort path, AttrRegionExit), so only sel != 0 paths record.
func buildExitRegion(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("exit")
	f := pb.Func("main", 1)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()  // region body with exit branch
	b4b := f.NewBlock() // rest of body
	b5 := f.NewBlock()  // continuation
	b6 := f.NewBlock()
	b7 := f.NewBlock()
	bExit := f.NewBlock() // side-exit landing pad
	k, acc, sel, x := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b0.MovI(k, 0)
	b0.MovI(acc, 0)
	b1.Bge(k, f.Param(0), b7.ID())
	b2.AndI(sel, k, 3)
	b3.Emit(ir.Instr{Op: ir.Reuse, Region: 0, Target: b5.ID(), Mem: ir.NoMem})
	br := b4.BeqI(sel, 0, bExit.ID())
	br.Region = 0
	br.Attr |= ir.AttrRegionExit
	mul := b4b.MulI(x, sel, 5)
	mul.Region = 0
	mul.Attr |= ir.AttrLiveOut
	end := b4b.AddI(x, x, 1)
	end.Region = 0
	end.Attr |= ir.AttrLiveOut | ir.AttrRegionEnd
	b5.Add(acc, acc, x)
	b6.AddI(k, k, 1)
	b6.Jmp(b1.ID())
	b7.Ret(acc)
	bExit.MovI(x, 100)
	bExit.Jmp(b5.ID())
	p := pb.Build()
	p.Regions = []*ir.Region{{
		ID: 0, Func: f.ID(), Class: ir.Stateless, Kind: ir.Acyclic,
		Inception: b3.ID(), Body: b4.ID(), Continuation: b5.ID(),
		Inputs: []ir.Reg{sel}, Outputs: []ir.Reg{x}, StaticSize: 3,
	}}
	p.Link()
	return ir.MustVerify(p)
}

func TestSideExitAbortsMemoization(t *testing.T) {
	p := buildExitRegion(t)
	m := New(p)
	m.CRB = crb.New(crb.Config{Entries: 8, Instances: 4}, p)
	got, err := m.Run(80)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for k := int64(0); k < 80; k++ {
		sel := k & 3
		if sel == 0 {
			want += 100
		} else {
			want += sel*5 + 1
		}
	}
	if got != want {
		t.Fatalf("result %d, want %d", got, want)
	}
	// sel==0 invocations (20 of 80) abort and never record: they miss
	// every time. The other three selectors record once each.
	if m.Stats.MemoAborts != 20 {
		t.Fatalf("aborts = %d, want 20", m.Stats.MemoAborts)
	}
	if m.Stats.ReuseHits != 80-20-3 {
		t.Fatalf("hits = %d, want 57", m.Stats.ReuseHits)
	}
}

// buildInvalRegion hand-assembles a memory-dependent region over tab[k&3]
// whose table is stored to, followed by a compiler-placed Inval, every
// 16th iteration of main(n).
func buildInvalRegion(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("inval")
	tab := pb.Object("tab", 4, []int64{10, 20, 30, 40})
	f := pb.Func("main", 1)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock() // region body: load tab[sel]
	b5 := f.NewBlock() // continuation
	b6 := f.NewBlock()
	bm := f.NewBlock() // mutation + compiler-placed invalidate
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
	// Mutate tab[1] every 16th iteration, with the compiler-placed Inval.
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

// TestInvalidateDropsMemoryInstances pins the Inval semantics end to end.
func TestInvalidateDropsMemoryInstances(t *testing.T) {
	p := buildInvalRegion(t)
	run := func(cfg *crb.Config) (int64, Stats) {
		m := New(p)
		if cfg != nil {
			m.CRB = crb.New(*cfg, p)
		}
		got, err := m.Run(128)
		if err != nil {
			t.Fatal(err)
		}
		return got, m.Stats
	}
	wantRes, _ := run(nil)
	cfg := crb.Config{Entries: 8, Instances: 4}
	gotRes, st := run(&cfg)
	if gotRes != wantRes {
		t.Fatalf("result %d, want %d (stale value reused after store?)", gotRes, wantRes)
	}
	if st.Invalidations != 8 {
		t.Fatalf("invalidations = %d, want 8", st.Invalidations)
	}
	// Each invalidation wipes all four instances; they re-record over the
	// next four distinct selectors.
	if st.ReuseMisses < 8*4 {
		t.Fatalf("misses = %d, want ≥ 32 (re-recording after each invalidation)", st.ReuseMisses)
	}
	if st.ReuseHits == 0 {
		t.Fatal("expected hits between invalidations")
	}
}

// TestEventFieldsOverwritten checks that the interpreter, which builds
// every traced run's events, assigns every Event field on every emission:
// a tracer that scrambles each event after copying it must see the same
// event stream as one that only copies. Reuse hits and misses and Inval
// fan-outs all occur in the program.
func TestEventFieldsOverwritten(t *testing.T) {
	p := buildInvalRegion(t)
	record := func(scramble bool) []Event {
		m := New(p)
		m.CRB = crb.New(crb.Config{Entries: 8, Instances: 4}, p)
		var evs []Event
		m.Trace = func(ev *Event) {
			evs = append(evs, *ev)
			if scramble {
				*ev = Event{
					Func: p.Funcs[0], Block: 99, Index: 99, Instr: &ir.Instr{},
					PC: 99, Regs: []int64{99}, Val1: 99, Val2: 99, Result: 99,
					Addr: 99, Taken: true, TargetPC: 99, ReuseHit: true,
					ReuseOut: 99, ReusedInstrs: 99, InvalCount: 99,
				}
			}
		}
		if _, err := m.Run(128); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	want, got := record(false), record(true)
	if len(got) != len(want) {
		t.Fatalf("%d events scrambled vs %d", len(got), len(want))
	}
	var hits, invals int
	for i := range want {
		w, g := want[i], got[i]
		// Regs views the live register file: compare its length.
		if len(g.Regs) != len(w.Regs) {
			t.Fatalf("event %d has %d regs, want %d", i, len(g.Regs), len(w.Regs))
		}
		w.Regs, g.Regs = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("event %d = %+v, want %+v", i, g, w)
		}
		if w.ReuseHit {
			hits++
		}
		if w.InvalCount > 0 {
			invals++
		}
	}
	if hits == 0 || invals == 0 {
		t.Fatalf("%d hits, %d invals: program no longer exercises both", hits, invals)
	}
}
