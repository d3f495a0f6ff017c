package experiments

import (
	"strings"
	"testing"

	"ccr/internal/ir"
	"ccr/internal/workloads"
)

// tinySuite builds one shared suite for the package's tests.
func tinySuite(t *testing.T) *Suite {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = workloads.Tiny
	return NewSuite(cfg)
}

func TestFigure4Shape(t *testing.T) {
	s := tinySuite(t)
	r, err := Figure4(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(s.Benches) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.RegionPct < row.BlockPct {
			t.Fatalf("%s: region %.1f%% below block %.1f%%", row.Bench, row.RegionPct, row.BlockPct)
		}
		if row.BlockPct < 0 || row.RegionPct > 100 {
			t.Fatalf("%s: out of range", row.Bench)
		}
	}
	if r.AvgRegion <= r.AvgBlock {
		t.Fatalf("region average %.1f must exceed block average %.1f", r.AvgRegion, r.AvgBlock)
	}
	if !strings.Contains(r.Render(), "Figure 4") {
		t.Fatal("render")
	}
}

func TestFigure8Monotonicity(t *testing.T) {
	s := tinySuite(t)
	a, err := Figure8a(s)
	if err != nil {
		t.Fatal(err)
	}
	// More instances can only help on average (same compile, larger CRB).
	if a.Avg[2] < a.Avg[0]-0.01 {
		t.Fatalf("16 CIs (%f) should not lose to 4 CIs (%f)", a.Avg[2], a.Avg[0])
	}
	b, err := Figure8b(s)
	if err != nil {
		t.Fatal(err)
	}
	if b.Avg[2] < b.Avg[0]-0.01 {
		t.Fatalf("128 entries (%f) should not lose to 32 (%f)", b.Avg[2], b.Avg[0])
	}
	// The shared-point consistency: 128×8 appears in both sweeps.
	if d := a.Avg[1] - b.Avg[2]; d > 0.001 || d < -0.001 {
		t.Fatalf("128×8 differs across sweeps: %f vs %f", a.Avg[1], b.Avg[2])
	}
}

func TestFigure9Distributions(t *testing.T) {
	s := tinySuite(t)
	r, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Rows {
		var st, dy float64
		for _, g := range PaperGroups {
			st += r.Static[b][g]
			dy += r.Dynamic[b][g]
		}
		if st > 1.0001 || dy > 1.0001 {
			t.Fatalf("%s: distribution exceeds 100%%: static %f dynamic %f", b, st, dy)
		}
	}
	if r.AcyclicReplaced < 5 {
		t.Fatalf("acyclic regions replace %.1f instructions, expected several", r.AcyclicReplaced)
	}
}

func TestGroupOfBuckets(t *testing.T) {
	cases := []struct {
		in   *ir.Region
		want string
	}{
		{&ir.Region{Class: ir.Stateless, Inputs: make([]ir.Reg, 1)}, "SL_4"},
		{&ir.Region{Class: ir.Stateless, Inputs: make([]ir.Reg, 5)}, "SL_6"},
		{&ir.Region{Class: ir.Stateless, Inputs: make([]ir.Reg, 8)}, "SL_8"},
		{&ir.Region{Class: ir.MemoryDependent, Inputs: make([]ir.Reg, 2), MemObjects: make([]ir.MemID, 1)}, "MD_3_1"},
		{&ir.Region{Class: ir.MemoryDependent, Inputs: make([]ir.Reg, 5), MemObjects: make([]ir.MemID, 1)}, "MD_6_1"},
		{&ir.Region{Class: ir.MemoryDependent, Inputs: make([]ir.Reg, 2), MemObjects: make([]ir.MemID, 2)}, "MD_2_2"},
		{&ir.Region{Class: ir.MemoryDependent, Inputs: make([]ir.Reg, 2), MemObjects: make([]ir.MemID, 3)}, "MD_2_3"},
	}
	for _, tc := range cases {
		if got := GroupOf(tc.in); got != tc.want {
			t.Fatalf("GroupOf = %s, want %s", got, tc.want)
		}
	}
}

func TestFigure10Cumulative(t *testing.T) {
	s := tinySuite(t)
	r, err := Figure10(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range r.Rows {
		v := r.Top[b]
		for i := 1; i < 4; i++ {
			if v[i] < v[i-1]-1e-9 {
				t.Fatalf("%s: cumulative shares must be monotone: %v", b, v)
			}
		}
		if v[3] > 1.0001 {
			t.Fatalf("%s: share > 100%%: %v", b, v)
		}
	}
}

func TestFigure11ArchitecturalConsistency(t *testing.T) {
	s := tinySuite(t)
	r, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.TrainSpeedup <= 0 || row.RefSpeedup <= 0 {
			t.Fatalf("%s: non-positive speedup", row.Bench)
		}
		if row.TrainElimFrac < 0 || row.TrainElimFrac > 1 {
			t.Fatalf("%s: elimination fraction out of range", row.Bench)
		}
	}
}

func TestScalars(t *testing.T) {
	s := tinySuite(t)
	r, err := Scalars(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.StaticRegions == 0 || r.CyclicRegions == 0 {
		t.Fatalf("region counts: %+v", r)
	}
	if r.AvgSpeedup128x16+0.01 < r.AvgSpeedup128x8 {
		t.Fatalf("16 CIs below 8 CIs: %f vs %f", r.AvgSpeedup128x16, r.AvgSpeedup128x8)
	}
	if r.StatelessStaticFrac <= 0 || r.StatelessStaticFrac > 1 {
		t.Fatalf("stateless fraction %f", r.StatelessStaticFrac)
	}
	if !strings.Contains(r.Render(), "average speedup") {
		t.Fatal("render")
	}
}

func TestSuiteCaching(t *testing.T) {
	s := tinySuite(t)
	b := s.Benches[0]
	c1, err := s.Compiled(b)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := s.Compiled(b)
	if c1 != c2 {
		t.Fatal("compilation not cached")
	}
	r1, err := s.BaseSim(b, b.Train)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := s.BaseSim(b, b.Train)
	if r1 != r2 {
		t.Fatal("base simulation not cached")
	}
}

func TestAblationSpeculationNeverHurts(t *testing.T) {
	s := tinySuite(t)
	r, err := AblationSpeculation(s)
	if err != nil {
		t.Fatal(err)
	}
	// Hiding validation latency can only help on average (hits are the
	// common case for formed regions).
	if r.Avg[1] < r.Avg[0]-0.005 {
		t.Fatalf("speculative validation hurt: %f vs %f", r.Avg[1], r.Avg[0])
	}
}

// TestPaperShapes pins the qualitative results the reproduction targets.
// It runs at Small scale (a few seconds); skipped with -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs the full suite")
	}
	cfg := DefaultConfig()
	cfg.Scale = workloads.Small
	s := NewSuite(cfg)

	a, err := Figure8a(s)
	if err != nil {
		t.Fatal(err)
	}
	// The averages land near the paper's 1.20 / 1.25 / 1.30.
	for i, bounds := range [][2]float64{{1.10, 1.35}, {1.15, 1.40}, {1.17, 1.45}} {
		if a.Avg[i] < bounds[0] || a.Avg[i] > bounds[1] {
			t.Errorf("Fig8a avg[%d] = %.3f outside [%.2f, %.2f]", i, a.Avg[i], bounds[0], bounds[1])
		}
	}
	// m88ksim is the best benchmark (paper: "most effective for
	// 124.m88ksim").
	best, bestName := 0.0, ""
	for name, sp := range a.Speedup {
		if sp[1] > best {
			best, bestName = sp[1], name
		}
	}
	if bestName != "m88ksim" {
		t.Errorf("best benchmark = %s (%.3f), paper says m88ksim", bestName, best)
	}
	// compress is among the weakest (paper: flat distribution, small win).
	if sp := a.Speedup["compress"][1]; sp > 1.15 {
		t.Errorf("compress speedup %.3f, expected small", sp)
	}
	// pgpencode gains from more instances (paper: "variation in the
	// number of computation instances substantially increased the
	// performance speedup of pgpencode").
	pgp := a.Speedup["pgpencode"]
	if pgp[2] < pgp[0]+0.05 {
		t.Errorf("pgpencode not CI-sensitive: %v", pgp)
	}

	f4, err := Figure4(s)
	if err != nil {
		t.Fatal(err)
	}
	if f4.AvgRegion < 1.3*f4.AvgBlock {
		t.Errorf("region potential %.1f%% not well above block %.1f%%", f4.AvgRegion, f4.AvgBlock)
	}
}

func TestAblationFuncLevel(t *testing.T) {
	s := tinySuite(t)
	r, err := AblationFuncLevel(s)
	if err != nil {
		t.Fatal(err)
	}
	// The extension may only add reuse opportunities.
	if r.Avg[1] < r.Avg[0]-0.01 {
		t.Fatalf("function-level CCR hurt on average: %f vs %f", r.Avg[1], r.Avg[0])
	}
}

func TestAblationOutOfOrder(t *testing.T) {
	s := tinySuite(t)
	r, err := AblationOutOfOrder(s)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse must still help on the dynamically scheduled machine, even
	// if less than on the in-order one.
	if r.Avg[1] < 1.0 {
		t.Fatalf("CCR on OoO machine slowed down: %f", r.Avg[1])
	}
}

func TestComparisonOrdering(t *testing.T) {
	s := tinySuite(t)
	r, err := Comparison(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(s.Benches) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The paper's positioning: compiler-directed regions beat block-level
	// hardware reuse on average.
	if r.Avg[2] <= r.Avg[1] {
		t.Fatalf("CCR (%.3f) should beat block-level reuse (%.3f)", r.Avg[2], r.Avg[1])
	}
	for _, b := range r.Rows {
		for _, v := range r.Speedup[b] {
			if v <= 0 {
				t.Fatalf("%s: non-positive speedup", b)
			}
		}
	}
	if !strings.Contains(r.Render(), "Related-work comparison") {
		t.Fatal("render")
	}
}

func TestRenderersProduceTables(t *testing.T) {
	s := tinySuite(t)
	f8, err := Figure8a(s)
	if err != nil {
		t.Fatal(err)
	}
	out := f8.Render("Figure 8(a)")
	for _, want := range []string{"Figure 8(a)", "average", "m88ksim"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
	f9, err := Figure9(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f9.Render(), "Figure 9(b)") {
		t.Fatal("figure 9 render")
	}
	f10, err := Figure10(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f10.Render(), "TOP 10%") {
		t.Fatal("figure 10 render")
	}
	f11, err := Figure11(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f11.Render(), "train") {
		t.Fatal("figure 11 render")
	}
	ab, err := AblationAssoc(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ab.Render(), "associativity") {
		t.Fatal("ablation render")
	}
	h, err := AblationHeuristics(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderHeuristics(h), "thresholds") {
		t.Fatal("heuristics render")
	}
}
