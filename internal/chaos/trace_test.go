package chaos_test

import (
	"testing"

	"ccr/internal/chaos"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
)

// buildRunProg hand-assembles a base program (no compiler regions) whose
// hot loop contains one DTM-eligible straight-line run with a small,
// recurring input domain, so the trace buffer forms and replays traces:
//
//	main(n):
//	  b0: k=0; acc=0
//	  b1: if k>=n goto b5
//	  b2: sel = k & 3; jmp b3
//	  b3: x = sel*3; x = x+7; x = x+sel; jmp b4   (the eligible run)
//	  b4: acc += x; out[0] = acc; k++; jmp b1     (St keeps b4 ineligible)
//	  b5: ret acc
func buildRunProg(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("chaos-run")
	out := pb.Object("out", 1, []int64{0})
	f := pb.Func("main", 1)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()
	b5 := f.NewBlock()
	k, acc, sel, x, ptr := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b0.MovI(k, 0)
	b0.MovI(acc, 0)
	b1.Bge(k, f.Param(0), b5.ID())
	b2.AndI(sel, k, 3)
	b2.Jmp(b3.ID())
	b3.MulI(x, sel, 3)
	b3.AddI(x, x, 7)
	b3.Add(x, x, sel)
	b3.Jmp(b4.ID())
	b4.Add(acc, acc, x)
	b4.Lea(ptr, out, 0)
	b4.St(ptr, 0, acc, out)
	b4.AddI(k, k, 1)
	b4.Jmp(b1.ID())
	b5.Ret(acc)
	p := pb.Build()
	p.Link()
	return ir.MustVerify(p)
}

// buildMemRunProg is the store-invalidation scenario: the eligible run
// loads tab[sel], and every 16th iteration a store mutates tab[1]. A
// correct DTM kills the memory-valid bits on that store and recomputes;
// dropping the store notification or resurrecting an invalidated trace
// serves stale loads.
//
//	main(n):
//	  b0: k=0; acc=0
//	  b1: if k>=n goto b6
//	  b2: sel = k & 3; jmp b3
//	  b3: ptr = &tab[sel]; x = tab[sel]; x = x+0; jmp b4   (the run)
//	  b4: acc += x; tail = k & 15; k++; if tail != 15 goto b1
//	  b5: tab[1] = k; jmp b1
//	  b6: ret acc
func buildMemRunProg(t *testing.T) *ir.Program {
	t.Helper()
	pb := ir.NewProgramBuilder("chaos-memrun")
	tab := pb.Object("tab", 4, []int64{10, 20, 30, 40})
	f := pb.Func("main", 1)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()
	b5 := f.NewBlock()
	b6 := f.NewBlock()
	k, acc, sel, x, ptr, tail := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	b0.MovI(k, 0)
	b0.MovI(acc, 0)
	b1.Bge(k, f.Param(0), b6.ID())
	b2.AndI(sel, k, 3)
	b2.Jmp(b3.ID())
	b3.LeaIdx(ptr, tab, sel, 0)
	b3.Ld(x, ptr, 0, tab)
	b3.AddI(x, x, 0)
	b3.Jmp(b4.ID())
	b4.Add(acc, acc, x)
	b4.AndI(tail, k, 15)
	b4.AddI(k, k, 1)
	b4.BneI(tail, 15, b1.ID())
	b5.Lea(ptr, tab, 1)
	b5.St(ptr, 0, k, tab)
	b5.Jmp(b1.ID())
	b6.Ret(acc)
	p := pb.Build()
	p.Link()
	return ir.MustVerify(p)
}

// digestDTM runs p with the given trace buffer (nil = DTM off) and
// returns its architectural digest.
func digestDTM(t *testing.T, p *ir.Program, buf emu.TraceBuffer, n int64) oracle.Digest {
	t.Helper()
	m := emu.New(p)
	if buf != nil {
		m.DTM = buf
	}
	var col oracle.Collector
	col.Attach(m)
	res, err := m.Run(n)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return col.Finish(res, m.Mem)
}

func dtmConfig() reuse.DTMConfig { return reuse.DefaultDTMConfig() }

// TestOracleDetectsEveryTraceFaultClass extends the non-vacuousness proof
// to the DTM backend: for every fault class, a seeded trace injector
// perturbs at least one operation and the differential check against the
// DTM-off reference run reports the divergence.
func TestOracleDetectsEveryTraceFaultClass(t *testing.T) {
	for _, fault := range chaos.AllFaults {
		fault := fault
		t.Run(fault.String(), func(t *testing.T) {
			var p *ir.Program
			var n int64
			switch fault {
			case chaos.DropInvalidation, chaos.StaleMemValid:
				p, n = buildMemRunProg(t), 256
			default:
				p, n = buildRunProg(t), 100
			}
			ref := digestDTM(t, p, nil, n)
			inj := chaos.WrapTrace(reuse.NewDTM(dtmConfig(), p), chaos.Config{Fault: fault, Seed: 1})
			got := digestDTM(t, p, inj, n)
			if st := inj.Stats(); st.Injected == 0 {
				t.Fatalf("injector never fired (eligible %d)", st.Eligible)
			}
			err := oracle.Compare(ref, got)
			if err == nil {
				t.Fatalf("oracle missed trace fault %v: digest %+v", fault, got)
			}
			t.Logf("detected: %v", err)
		})
	}
}

// TestCleanTraceRunsPassTheOracle is the DTM control: a bare DTM passes
// the transparency check, and a None-configured trace injector is
// bit-transparent — the identical digest, trace checksum and instruction
// count included, as the bare DTM run.
func TestCleanTraceRunsPassTheOracle(t *testing.T) {
	for _, build := range []struct {
		name string
		prog func(*testing.T) *ir.Program
		n    int64
	}{
		{"run", buildRunProg, 100},
		{"memrun", buildMemRunProg, 256},
	} {
		t.Run(build.name, func(t *testing.T) {
			p := build.prog(t)
			ref := digestDTM(t, p, nil, build.n)
			bare := reuse.NewDTM(dtmConfig(), p)
			clean := digestDTM(t, p, bare, build.n)
			if err := oracle.Compare(ref, clean); err != nil {
				t.Fatalf("clean DTM run diverged: %v", err)
			}
			if bare.Stats().Hits == 0 {
				t.Fatal("clean DTM run never reused a trace — the control is vacuous")
			}
			inj := chaos.WrapTrace(reuse.NewDTM(dtmConfig(), p), chaos.Config{Fault: chaos.None, Seed: 1})
			none := digestDTM(t, p, inj, build.n)
			if err := oracle.Compare(ref, none); err != nil {
				t.Fatalf("None trace injector diverged: %v", err)
			}
			if !none.Equal(clean) {
				t.Fatalf("None trace injector not bit-transparent:\nclean %+v\nnone  %+v", clean, none)
			}
			if st := inj.Stats(); st.Injected != 0 {
				t.Fatalf("None trace injector injected %d faults", st.Injected)
			}
		})
	}
}
