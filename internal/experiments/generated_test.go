package experiments

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"ccr/internal/progen"
	"ccr/internal/workloads"
)

// generatedBenches builds n progen programs as benchmarks, each with its
// own training and reference argument. Every call builds fresh programs,
// as a new process would.
func generatedBenches(n int) []*workloads.Benchmark {
	benches := make([]*workloads.Benchmark, n)
	for i := range benches {
		seed := uint64(i)
		benches[i] = &workloads.Benchmark{
			Name:  fmt.Sprintf("gen%d", i),
			Paper: fmt.Sprintf("gen%d", i),
			Prog:  progen.Generate(seed, progen.DefaultConfig()),
			Train: []int64{int64(i % 5)},
			Ref:   []int64{int64(i%5) + 3},
		}
	}
	return benches
}

// TestVerifyGeneratedPrograms runs the transparency sweep above core on
// programs nobody wrote by hand: generated benchmarks go through
// NewSuiteOf and Verify, cold and then warm against one store. Region
// formation is made aggressive so the CCR points run real regions. Every
// scheme must be transparent under oracle.Compare, and the warm rerun
// must report the same rows while writing nothing.
func TestVerifyGeneratedPrograms(t *testing.T) {
	cfg := storeConfig(t, filepath.Join(t.TempDir(), "store"))
	st := cfg.Store
	r := &cfg.Opts.Region
	r.R, r.Rm, r.MinLiveInInvariance, r.BlockReusableFrac = 0, 0, 0, 0
	r.CyclicReuseOpportunity, r.CyclicMultiIter = -1, -1
	r.MinStaticSize, r.MinExecFrac = 1, 0

	const n = 6
	cold := NewSuiteOf(cfg, generatedBenches(n))
	coldRes, err := Verify(cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.Failed() > 0 {
		t.Fatalf("generated programs are not transparent:\n%s", coldRes.Render())
	}
	withRegions := 0
	for _, b := range cold.Benches {
		cr, err := cold.Compiled(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(cr.Prog.Regions) > 0 {
			withRegions++
		}
	}
	if withRegions < 2 {
		t.Fatalf("vacuous inputs: %d of %d generated programs formed regions", withRegions, n)
	}
	puts := st.Stats().Puts
	if puts == 0 {
		t.Fatal("cold sweep persisted nothing")
	}

	warm := NewSuiteOf(cfg, generatedBenches(n))
	warmRes, err := Verify(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmRes, coldRes) || warmRes.Render() != coldRes.Render() {
		t.Errorf("warm rows differ from cold:\nwarm %s\ncold %s", warmRes.Render(), coldRes.Render())
	}
	if s := st.Stats(); s.Puts != puts || s.Hits == 0 {
		t.Errorf("warm sweep wrote %d artifacts and hit %d (%+v)", s.Puts-puts, s.Hits, s)
	}
	t.Logf("%d points checked, %d of %d programs with regions, %d artifacts stored", coldRes.Checked, withRegions, n, puts)
}
