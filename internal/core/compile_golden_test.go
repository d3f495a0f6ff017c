package core

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ccr/internal/ir"
	"ccr/internal/region"
	"ccr/internal/vprof"
	"ccr/internal/workloads"
)

const compileGolden = "testdata/compile.golden"

// TestCompileGolden pins the whole compilation pipeline for every
// workload at tiny and small scale: one row per program with the SHA-256
// of the transformed program's dump, the training run's result, its
// dynamic instruction count and the SHA-256 of the canonical text of its
// value profile (profileText). Each program also gets one row per
// formationVariants entry, with the SHA-256 of the program compiled under
// that variant's region options. A changed row means a compiled program
// or the profile behind it changed. -update rewrites the file; -short
// skips the small rows.
func TestCompileGolden(t *testing.T) {
	scales := []struct {
		name  string
		scale workloads.Scale
	}{{"tiny", workloads.Tiny}, {"small", workloads.Small}}
	if testing.Short() {
		scales = scales[:1]
	}
	var got []string
	for _, s := range scales {
		for _, name := range workloads.Names() {
			w := workloads.Load(name, s.scale)
			cr, err := Compile(w.Prog, w.Train, DefaultOptions())
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", name, s.name, err)
			}
			got = append(got, fmt.Sprintf("%s/%s prog=%x train=%d dyn=%d profile=%x",
				name, s.name, sha256.Sum256([]byte(cr.Prog.Dump())), cr.TrainResult,
				cr.Profile.TotalDyn, sha256.Sum256([]byte(profileText(w.Prog, cr.Profile)))))
			for _, v := range formationVariants() {
				opts := DefaultOptions()
				opts.Region = v.opts
				vr, err := CompileWith(w.Prog, cr.Alias, w.Train, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: compile: %v", name, s.name, v.name, err)
				}
				got = append(got, fmt.Sprintf("%s/%s/%s prog=%x",
					name, s.name, v.name, sha256.Sum256([]byte(vr.Prog.Dump()))))
			}
		}
	}
	if *update {
		if testing.Short() {
			t.Fatal("-update needs every row: run without -short")
		}
		if err := os.WriteFile(compileGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(compileGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, _, _ := strings.Cut(line, " ")
		want[key] = line
	}
	for _, row := range got {
		key, _, _ := strings.Cut(row, " ")
		if want[key] != row {
			t.Errorf("row differs:\n got  %s\n want %s", row, want[key])
		}
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("%d rows, golden has %d", len(got), len(want))
	}
}

// formationVariant is a named set of region-formation options.
type formationVariant struct {
	name string
	opts region.Options
}

// formationVariants returns the region options the experiments compile
// under besides the paper's: the heuristic ablation's strict, lax and
// greedy thresholds and §6 function-level formation.
func formationVariants() []formationVariant {
	strict, lax, greedy, fl := region.DefaultOptions(), region.DefaultOptions(), region.DefaultOptions(), region.DefaultOptions()
	strict.R, strict.MinLiveInInvariance = 0.90, 0.70
	lax.R, lax.MinLiveInInvariance, lax.BlockReusableFrac = 0.30, 0.15, 0.25
	greedy.R, greedy.Rm, greedy.MinLiveInInvariance, greedy.BlockReusableFrac, greedy.MinStaticSize = 0, 0, 0, 0, 1
	fl.FunctionLevel = true
	return []formationVariant{{"strict", strict}, {"lax", lax}, {"greedy", greedy}, {"funclevel", fl}}
}

// profileText renders everything prof reports about prog through the
// Profile accessors: per instruction its execution count, invariance over
// the top 1..16 input tuples, distinct count, memory reuse, taken ratio
// and edge weights; per block its execution count; per inner loop (in key
// order) its counters and ratios. Floats print in their shortest exact
// form, so equal text means equal profiles as the heuristics see them.
func profileText(prog *ir.Program, prof *vprof.Profile) string {
	var b strings.Builder
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, f := range prog.Funcs {
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "f%d b%d exec=%d\n", f.ID, blk.ID, prof.BlockExec(f.ID, blk.ID))
			for i := range blk.Instrs {
				ref := ir.InstrRef{Func: f.ID, Block: blk.ID, Index: i}
				fmt.Fprintf(&b, " %d exec=%d distinct=%d mem=%s taken=%s edge=%d/%d inv=",
					i, prof.Exec(ref), prof.Distinct(ref), g(prof.MemReuse(ref)), g(prof.TakenRatio(ref)),
					prof.EdgeWeight(ref, true), prof.EdgeWeight(ref, false))
				for k := 1; k <= 16; k++ {
					b.WriteString(g(prof.Invariance(ref, k)))
					b.WriteByte(',')
				}
				b.WriteByte('\n')
			}
		}
	}
	keys := make([]vprof.LoopKey, 0, len(prof.Loops))
	for k := range prof.Loops {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y vprof.LoopKey) int {
		return cmp.Or(cmp.Compare(x.Func, y.Func), cmp.Compare(x.Header, y.Header))
	})
	for _, k := range keys {
		lp := prof.Loop(k.Func, k.Header)
		fmt.Fprintf(&b, "loop f%d b%d %+v reuse=%s multi=%s\n",
			k.Func, k.Header, *lp, g(lp.ReuseOpportunity()), g(lp.MultiIterRatio()))
	}
	fmt.Fprintf(&b, "total=%d\n", prof.TotalDyn)
	return b.String()
}
