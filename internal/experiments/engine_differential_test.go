package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"ccr/internal/core"
	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// TestEngineDifferential is the engine-equivalence gate: for every
// benchmark × dataset × configuration point it checks the predecoded
// engine against the legacy interpreter two ways.
//
//   - Digested: the internal/oracle digests (result, final memory, store,
//     return-value and trace streams) must be byte-identical three ways.
//     The predecoded engine folds them inline on its batch tier, and on
//     its careful tier when a no-op tracer is attached too; the
//     interpreter folds them from its event stream. This pins all three.
//   - Untraced: a plain run with no tracer or digest — the batch tier's
//     fast path — must reproduce the interpreter's result, final memory
//     image, and the complete statistics block (DynInstrs, per-opcode
//     histogram, branch and reuse counters, per-region rows), plus the CRB
//     and DTM counters when those buffers are attached.
//
// Configurations cover the untransformed base program, the default CCR
// compilation, a conflict-pressure geometry, the function-level extension
// (memoization-mode and funcMemo paths), and trace memoization alone and
// beside the CRB (DTM landing replays, which execute and digest nothing).
func TestEngineDifferential(t *testing.T) {
	for _, b := range workloads.All(workloads.Tiny) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			opts := core.DefaultOptions()
			cr, err := core.Compile(b.Prog, b.Train, opts)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			flOpts := core.DefaultOptions()
			flOpts.Region.FunctionLevel = true
			crFL, err := core.Compile(b.Prog, b.Train, flOpts)
			if err != nil {
				t.Fatalf("funclevel compile: %v", err)
			}
			small := crb.Config{Entries: 8, Instances: 2}
			points := []struct {
				name string
				prog *ir.Program
				rc   reuse.Config
			}{
				{"base", b.Prog, reuse.Config{Scheme: reuse.Off}},
				{"ccr-default", cr.Prog, reuse.CCR(opts.CRB)},
				{"ccr-8E2CI", cr.Prog, reuse.CCR(small)},
				{"funclevel", crFL.Prog, reuse.CCR(flOpts.CRB)},
				{"dtm", b.Prog, reuse.DTMOnly(opts.DTM)},
				{"both", cr.Prog, reuse.Both(opts.CRB, opts.DTM)},
			}
			datasets := []struct {
				name string
				args []int64
			}{{"train", b.Train}, {"ref", b.Ref}}
			for _, ds := range datasets {
				for _, pt := range points {
					label := fmt.Sprintf("%s/%s", ds.name, pt.name)

					di, err := core.DigestRunReuseEngine(pt.prog, pt.rc, ds.args, 0, true)
					if err != nil {
						t.Fatalf("%s: interp digest: %v", label, err)
					}
					de, err := core.DigestRunReuseEngine(pt.prog, pt.rc, ds.args, 0, false)
					if err != nil {
						t.Fatalf("%s: engine digest: %v", label, err)
					}
					if err := oracle.Compare(di, de); err != nil {
						t.Errorf("%s: digest diverged: %v", label, err)
					} else if !di.Equal(de) {
						t.Errorf("%s: digest identity diverged:\ninterp %+v\nengine %+v", label, di, de)
					}

					dc, err := carefulDigest(pt.prog, pt.rc, ds.args)
					if err != nil {
						t.Fatalf("%s: careful-tier digest: %v", label, err)
					}
					if !di.Equal(dc) {
						t.Errorf("%s: careful-tier digest diverged:\ninterp  %+v\ncareful %+v", label, di, dc)
					}

					compareUntraced(t, label, pt.prog, pt.rc, ds.args)
				}
			}
		})
	}
}

// newMachine builds a machine for prog with rc's reuse buffers attached,
// on the interpreter when interp is set.
func newMachine(prog *ir.Program, rc reuse.Config, interp bool) *emu.Machine {
	m := emu.New(prog)
	m.Interp = interp
	if rc.Scheme.UsesCCR() {
		m.CRB = crb.New(rc.CRB, prog)
	}
	if rc.Scheme.UsesDTM() {
		m.DTM = reuse.NewDTM(rc.DTM, prog)
	}
	return m
}

// carefulDigest digests a run of the predecoded engine with a no-op
// tracer attached, which keeps it on its careful tier throughout.
func carefulDigest(prog *ir.Program, rc reuse.Config, args []int64) (oracle.Digest, error) {
	m := newMachine(prog, rc, false)
	m.Trace = func(*emu.Event) {}
	var col oracle.Collector
	col.Attach(m)
	res, err := m.Run(args...)
	if err != nil {
		return oracle.Digest{}, err
	}
	return col.Finish(res, m.Mem), nil
}

// compareUntraced runs both engines with no tracer or digest attached and
// asserts full architectural and statistical parity.
func compareUntraced(t *testing.T, label string, prog *ir.Program, rc reuse.Config, args []int64) {
	t.Helper()
	run := func(interp bool) (*emu.Machine, int64, error) {
		m := newMachine(prog, rc, interp)
		res, err := m.Run(args...)
		return m, res, err
	}
	mi, ri, ei := run(true)
	me, re, ee := run(false)
	if (ei == nil) != (ee == nil) || (ei != nil && ei.Error() != ee.Error()) {
		t.Errorf("%s: untraced errs: interp %v, engine %v", label, ei, ee)
		return
	}
	if ri != re {
		t.Errorf("%s: untraced result: interp %d, engine %d", label, ri, re)
	}
	if !reflect.DeepEqual(mi.Mem, me.Mem) {
		t.Errorf("%s: final memory images diverged", label)
	}
	si, se := mi.Stats, me.Stats
	if si.DynInstrs != se.DynInstrs || si.ByOp != se.ByOp ||
		si.Branches != se.Branches || si.TakenBranches != se.TakenBranches {
		t.Errorf("%s: instruction stats diverged:\ninterp dyn=%d br=%d/%d %v\nengine dyn=%d br=%d/%d %v",
			label, si.DynInstrs, si.Branches, si.TakenBranches, si.ByOp,
			se.DynInstrs, se.Branches, se.TakenBranches, se.ByOp)
	}
	if si.ReuseHits != se.ReuseHits || si.ReuseMisses != se.ReuseMisses ||
		si.ReusedInstrs != se.ReusedInstrs || si.MemoAborts != se.MemoAborts ||
		si.Invalidations != se.Invalidations ||
		si.DTMHits != se.DTMHits || si.DTMReusedInstrs != se.DTMReusedInstrs {
		t.Errorf("%s: reuse stats diverged:\ninterp %+v\nengine %+v", label, si, se)
	}
	if !reflect.DeepEqual(si.Regions, se.Regions) {
		t.Errorf("%s: per-region stats diverged:\ninterp %v\nengine %v", label, si.Regions, se.Regions)
	}
	if rc.Scheme.UsesCCR() {
		ci, ce := mi.CRB.(*crb.CRB).Stats(), me.CRB.(*crb.CRB).Stats()
		if ci != ce {
			t.Errorf("%s: CRB stats diverged:\ninterp %+v\nengine %+v", label, ci, ce)
		}
	}
	if rc.Scheme.UsesDTM() {
		ti, te := mi.DTM.(*reuse.DTM).Stats(), me.DTM.(*reuse.DTM).Stats()
		if !reflect.DeepEqual(ti, te) {
			t.Errorf("%s: DTM stats diverged:\ninterp %+v\nengine %+v", label, ti, te)
		}
	}
}
