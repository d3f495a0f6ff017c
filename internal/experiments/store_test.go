package experiments

import (
	"path/filepath"
	"testing"

	"ccr/internal/store"
	"ccr/internal/workloads"
)

func storeConfig(t *testing.T, dir string) Config {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Revision: "test-rev"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = workloads.Tiny
	cfg.Jobs = 2
	cfg.Store = st
	return cfg
}

// TestSuiteStorePersistence is the durability half of the resume
// guarantee: a second suite (a fresh process, as far as the caches are
// concerned) reloads compilations, simulations, digests and limit studies
// from the store instead of recomputing, and every reloaded artifact is
// bit-identical to the freshly computed one — including a CCR simulation
// run on a compile artifact that was dumped to text and re-parsed.
func TestSuiteStorePersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("store persistence test runs full tiny-scale artifacts")
	}
	dir := filepath.Join(t.TempDir(), "store")

	cold := NewSuite(storeConfig(t, dir))
	b := cold.Benches[0]
	cc := cold.Config().Opts.CRB

	coldSpeed, err := cold.Speedup(b, b.Train, cc)
	if err != nil {
		t.Fatal(err)
	}
	coldBase, err := cold.BaseDigest(b, b.Train)
	if err != nil {
		t.Fatal(err)
	}
	coldCCR, err := cold.CCRDigest(b, b.Train, cc)
	if err != nil {
		t.Fatal(err)
	}
	coldLimit, err := cold.Limit(b)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Store().Stats(); st.Puts == 0 {
		t.Fatalf("cold suite persisted nothing: %+v", st)
	}

	// A brand-new suite over the same store: everything the cold run
	// persisted must come back from disk.
	warm := NewSuite(storeConfig(t, dir))
	wb := warm.Benches[0]
	warmSpeed, err := warm.Speedup(wb, wb.Train, cc)
	if err != nil {
		t.Fatal(err)
	}
	warmBase, err := warm.BaseDigest(wb, wb.Train)
	if err != nil {
		t.Fatal(err)
	}
	warmCCR, err := warm.CCRDigest(wb, wb.Train, cc)
	if err != nil {
		t.Fatal(err)
	}
	warmLimit, err := warm.Limit(wb)
	if err != nil {
		t.Fatal(err)
	}

	if warmSpeed != coldSpeed {
		t.Errorf("speedup diverged across store reload: %v vs %v", warmSpeed, coldSpeed)
	}
	if !warmBase.Equal(coldBase) {
		t.Errorf("base digest diverged across store reload")
	}
	// CCRDigest on the warm suite runs on the re-parsed persisted compile:
	// equality here proves the dump→parse round trip preserves execution
	// semantics bit-for-bit.
	if !warmCCR.Equal(coldCCR) {
		t.Errorf("ccr digest diverged across store reload (compile round trip broken?)")
	}
	if warmLimit != coldLimit {
		t.Errorf("limit study diverged across store reload: %+v vs %+v", warmLimit, coldLimit)
	}

	st := warm.Store().Stats()
	// compile, base_sim, ccr_sim, digest, limit — at least these five
	// artifacts must have come from the store, with nothing recomputed.
	if st.Hits < 5 {
		t.Errorf("warm suite store hits = %d, want >= 5 (%+v)", st.Hits, st)
	}
	if st.Puts != 0 {
		t.Errorf("warm suite recomputed %d artifacts (%+v)", st.Puts, st)
	}
}

// TestSuiteStoreRevisionDiscipline: artifacts written by one build
// revision are never served to another — the suite recomputes instead.
func TestSuiteStoreRevisionDiscipline(t *testing.T) {
	if testing.Short() {
		t.Skip("store persistence test runs full tiny-scale artifacts")
	}
	dir := filepath.Join(t.TempDir(), "store")

	cold := NewSuite(storeConfig(t, dir))
	b := cold.Benches[0]
	if _, err := cold.BaseDigest(b, b.Train); err != nil {
		t.Fatal(err)
	}

	other, err := store.Open(store.Options{Dir: dir, Revision: "other-rev"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scale = workloads.Tiny
	cfg.Store = other
	stale := NewSuite(cfg)
	sb := stale.Benches[0]
	if _, err := stale.BaseDigest(sb, sb.Train); err != nil {
		t.Fatal(err)
	}
	st := other.Stats()
	if st.Stale == 0 {
		t.Errorf("stale-revision artifacts were not detected: %+v", st)
	}
	if st.Hits != 0 {
		t.Errorf("another revision's artifacts were served: %+v", st)
	}
}

// TestNoStoreComputesNoKeys: a suite without a store addresses nothing,
// so compiling and simulating a benchmark neither dumps and hashes the
// prepared program nor dumps the compiled one; the program is still
// prepared first.
func TestNoStoreComputesNoKeys(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = workloads.Tiny
	cfg.Jobs = 1
	s := NewSuite(cfg)
	b := s.Benches[0]
	if _, err := s.Compiled(b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BaseSim(b, b.Train); err != nil {
		t.Fatal(err)
	}
	if n := s.progKey.Len(); n != 0 {
		t.Fatalf("a suite without a store holds %d program digests, want 0", n)
	}
	if n := s.prep.Len(); n != 1 {
		t.Fatalf("%d benchmarks prepared, want 1", n)
	}
}

// TestVariantAfterStoreHit: a suite whose own compilation comes from the
// store has run no profile; the first variant under other region options
// profiles the benchmark then, once, and compiles the same program a
// cold suite does.
func TestVariantAfterStoreHit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cold := NewSuite(storeConfig(t, dir))
	b := cold.Benches[0]
	fl := cold.Config().Opts.Region
	fl.FunctionLevel = true
	want, err := cold.CompiledUnder(b, fl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Compiled(b); err != nil {
		t.Fatal(err)
	}

	warm := NewSuite(storeConfig(t, dir))
	b = warm.Benches[0]
	if _, err := warm.Compiled(b); err != nil {
		t.Fatal(err)
	}
	if n := warm.profiles.Stats().Misses; n != 0 {
		t.Fatalf("a compile store hit ran %d profiles, want 0", n)
	}
	for i := 0; i < 2; i++ {
		got, err := warm.CompiledUnder(b, fl)
		if err != nil {
			t.Fatal(err)
		}
		if got.Prog.Dump() != want.Prog.Dump() {
			t.Fatal("function-level variant after a store hit differs from the cold suite's")
		}
	}
	if n := warm.profiles.Stats().Misses; n != 1 {
		t.Fatalf("variants after a store hit ran %d profiles, want 1", n)
	}
}
