package ir

import "testing"

// buildAddChain assembles main(n) with a three-Add chain whose middle
// instruction is a branch target:
//
//	b0: add0 (r1 = n+n)
//	b1: add1 (r2 = r1+r1)   <- Bgt back-edge target
//	    add2 (r3 = r2+r2)
//	b2: Bgt n, r3 -> b1
//	b3: Ret r3
//
// The (add0, add1) pair is fusable by opcode but add1 is a run-entry PC,
// so only (add1, add2) may fuse.
func buildAddChain(t *testing.T) *DecodedFunc {
	t.Helper()
	pb := NewProgramBuilder("fuse")
	f := pb.Func("main", 1)
	n := f.Param(0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	r1, r2, r3 := f.NewReg(), f.NewReg(), f.NewReg()
	b0.Add(r1, n, n)
	b1.Add(r2, r1, r1)
	b1.Add(r3, r2, r2)
	b2.Bgt(n, r3, b1.ID())
	b3.Ret(r3)
	p := pb.Build()
	if err := Verify(p); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return p.Decoded().Funcs[f.ID()]
}

// TestFuseRespectsEntryPCs pins both sides of the entry rule: a fusable
// pair whose second slot is a branch target stays unfused, while the next
// pair (fully inside the run) is rewritten, second slot encoding intact.
func TestFuseRespectsEntryPCs(t *testing.T) {
	df := buildAddChain(t)
	if df.XCode == nil {
		t.Fatal("chain function has no XCode")
	}
	// Flat layout: 0 add0, 1 add1, 2 add2, 3 bgt, 4 ret, 5 sentinel.
	if !df.EntryPC[0] || !df.EntryPC[1] || df.EntryPC[2] {
		t.Fatalf("EntryPC = %v, want entries at 0 (func) and 1 (target) only in the chain", df.EntryPC)
	}
	if got := df.XCode[0].XOp; got != XAddRR {
		t.Errorf("pc 0: XOp = %d, want unfused XAddRR %d (pair would cover entry pc 1)", got, XAddRR)
	}
	if got := df.XCode[1].XOp; got != XFAddAdd {
		t.Errorf("pc 1: XOp = %d, want fused XFAddAdd %d", got, XFAddAdd)
	}
	if got := df.XCode[2].XOp; got != XAddRR {
		t.Errorf("pc 2 (second slot of pair): XOp = %d, want original XAddRR %d", got, XAddRR)
	}
}

// TestFuseInvariants checks the global pairing rules on every decoded
// function of a program: a fused slot's successor is never an entry PC,
// lies inside the same run, and keeps an unfused encoding (disjoint
// pairs).
func TestFuseInvariants(t *testing.T) {
	p, _ := buildCFG(t)
	for _, df := range p.Decoded().Funcs {
		if df.XCode == nil {
			continue
		}
		for pc := range df.XCode {
			if df.XCode[pc].XOp < XFFirst {
				continue
			}
			if pc+1 >= len(df.XCode) {
				t.Fatalf("fused op at last slot %d", pc)
			}
			if df.EntryPC[pc+1] {
				t.Errorf("pc %d: fused pair covers entry PC %d", pc, pc+1)
			}
			if df.RunEnd[pc] < int32(pc)+1 {
				t.Errorf("pc %d: pair crosses run end %d", pc, df.RunEnd[pc])
			}
			if df.XCode[pc+1].XOp >= XFFirst {
				t.Errorf("pc %d and %d both fused (pairs must be disjoint)", pc, pc+1)
			}
		}
	}
}

// TestRunDeltas cross-checks the precomputed per-run histograms against a
// direct scan of the flat code, including the sentinel-inclusion rule for
// runs that fall off the end.
func TestRunDeltas(t *testing.T) {
	p, _ := buildCFG(t)
	for _, df := range p.Decoded().Funcs {
		for pc := range df.Code {
			end := int(df.RunEnd[pc])
			var want [64]int64
			var wantBr int32
			for j := pc; j <= end; j++ {
				op := df.Code[j].Op
				want[op]++
				switch op {
				case Beq, Bne, Blt, Bge, Ble, Bgt:
					wantBr++
				}
			}
			var got [64]int64
			var total int64
			for _, oc := range df.RunOps[pc] {
				got[oc.Op] += int64(oc.N)
				total += int64(oc.N)
			}
			if got != want {
				t.Fatalf("RunOps[%d] = %v, want per-op counts %v", pc, got, want)
			}
			if total != int64(end-pc)+1 {
				t.Fatalf("RunOps[%d] covers %d slots, want %d", pc, total, end-pc+1)
			}
			if df.RunBr[pc] != wantBr {
				t.Fatalf("RunBr[%d] = %d, want %d", pc, df.RunBr[pc], wantBr)
			}
		}
	}
}
