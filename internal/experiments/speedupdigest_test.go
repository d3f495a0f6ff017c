package experiments

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ccr/internal/core"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/workloads"
)

// speedupDigestCell is one (benchmark, dataset, sweep point) of the
// SpeedupDigest test grid with its reference outputs.
type speedupDigestCell struct {
	b      *workloads.Benchmark
	args   []int64
	pt     SweepPoint
	speed  float64
	digest oracle.Digest
}

// checkSpeedupDigest calls SpeedupDigest on every cell against s and
// requires the reference speedup and digest bit for bit.
func checkSpeedupDigest(t *testing.T, path string, s *Suite, cells []speedupDigestCell) {
	t.Helper()
	for _, c := range cells {
		b := benchNamed(t, s, c.b.Name)
		sp, d, err := s.SpeedupDigest(b, c.args, c.pt.Reuse)
		if err != nil {
			t.Fatalf("%s: %s %v %s: %v", path, c.b.Name, c.args, c.pt.Label, err)
		}
		if sp != c.speed || d != c.digest {
			t.Fatalf("%s: %s %v %s: got (%v, %+v), want (%v, %+v)",
				path, c.b.Name, c.args, c.pt.Label, sp, d, c.speed, c.digest)
		}
	}
}

func benchNamed(t *testing.T, s *Suite, name string) *workloads.Benchmark {
	t.Helper()
	for _, b := range s.Benches {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("suite has no benchmark %q", name)
	return nil
}

// TestSpeedupDigest requires SpeedupDigest to equal SpeedupPoint plus
// ReuseDigest bit for bit, over two tiny workloads × every verify sweep
// point (scheme off included) × train/ref, on each path its scheme sim can
// take: computed fresh with the digest folded into the timed run, loaded
// from the store, served by the single-flight cache, and shared by
// concurrent callers of one key. It also pins that a telemetry suite
// records one ccr_sim summary per computed scheme sim and none for loaded
// ones.
func TestSpeedupDigest(t *testing.T) {
	newSuite := func(cfg Config) *Suite {
		return NewSuiteOf(cfg, []*workloads.Benchmark{
			workloads.Load("compress", workloads.Tiny), workloads.Load("lex", workloads.Tiny),
		})
	}
	memCfg := DefaultConfig()
	memCfg.Scale = workloads.Tiny

	ref := newSuite(memCfg)
	var cells []speedupDigestCell
	wantTel := map[string]bool{} // telemetry IDs of the computed scheme sims
	for _, b := range ref.Benches {
		for _, args := range [][]int64{b.Train, b.Ref} {
			for _, pt := range VerifySweepPoints(ref) {
				sp, err := ref.SpeedupPoint(b, args, pt.Reuse)
				if err != nil {
					t.Fatal(err)
				}
				d, err := ref.ReuseDigest(b, args, pt.Reuse)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, speedupDigestCell{b: b, args: args, pt: pt, speed: sp, digest: d})
				if pt.Reuse.Scheme != reuse.Off {
					wantTel["ccr_sim/"+b.Name+"|"+dsKey(args)+"|"+pt.Reuse.Key()] = true
				}
			}
		}
	}
	schemeSims := int64(len(wantTel))

	// Fresh: a cold store, so every scheme sim is computed by its caller.
	dir := filepath.Join(t.TempDir(), "store")
	coldCfg := storeConfig(t, dir)
	coldCfg.Telemetry = true
	cold := newSuite(coldCfg)
	man := runner.NewManifest("test", 1)
	cold.AttachManifest(man)
	checkSpeedupDigest(t, "fresh", cold, cells)
	if st := cold.ccrSim.Stats(); st.Misses != schemeSims || st.Hits != 0 {
		t.Fatalf("fresh: ccr_sim cache %+v, want %d misses and no hits", st, schemeSims)
	}
	if len(man.Telemetry) != len(wantTel) {
		t.Fatalf("fresh: %d telemetry summaries, want one per computed scheme sim (%d)", len(man.Telemetry), len(wantTel))
	}
	for id := range wantTel {
		if _, ok := man.Telemetry[id]; !ok {
			t.Fatalf("fresh: no telemetry summary %s", id)
		}
	}

	// Cached from the store: a new suite over the filled store computes no
	// scheme sim and records no telemetry.
	warmCfg := storeConfig(t, dir)
	warmCfg.Telemetry = true
	warm := newSuite(warmCfg)
	wman := runner.NewManifest("test", 1)
	warm.AttachManifest(wman)
	checkSpeedupDigest(t, "store", warm, cells)
	if st := warm.Store().Stats(); st.Puts != 0 || st.Hits < schemeSims {
		t.Fatalf("store: store %+v, want no puts and at least %d hits", st, schemeSims)
	}
	if len(wman.Telemetry) != 0 {
		t.Fatalf("store: %d telemetry summaries recorded for loaded sims", len(wman.Telemetry))
	}

	// Cached in memory: the same suite again is served by the cache.
	checkSpeedupDigest(t, "cache", warm, cells)
	if st := warm.ccrSim.Stats(); st.Hits != schemeSims || st.Misses != schemeSims {
		t.Fatalf("cache: ccr_sim cache %+v, want %d hits and %d misses", st, schemeSims, schemeSims)
	}

	// The fresh flag itself: only the caller that runs the timed sim gets
	// its folded digest.
	mem := newSuite(memCfg)
	c := cells[1]
	if c.pt.Reuse.Scheme == reuse.Off {
		t.Fatalf("cell %s is scheme off", c.pt.Label)
	}
	b := benchNamed(t, mem, c.b.Name)
	for i, wantFresh := range []bool{true, false} {
		var d oracle.Digest
		_, fresh, err := mem.reuseSim(b, c.args, c.pt.Reuse, &d)
		if err != nil {
			t.Fatal(err)
		}
		if fresh != wantFresh || (fresh && d != c.digest) {
			t.Fatalf("reuseSim call %d: fresh %v digest %+v, want fresh %v digest %+v", i, fresh, d, wantFresh, c.digest)
		}
	}

	// Concurrent callers of one key on a new suite: one computes, the
	// rest wait on its flight and recompute the digest.
	conc := newSuite(memCfg)
	const callers = 4
	for _, c := range cells[:len(cells)/4] {
		b := benchNamed(t, conc, c.b.Name)
		var wg sync.WaitGroup
		errs := make([]error, callers)
		sps := make([]float64, callers)
		ds := make([]oracle.Digest, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sps[i], ds[i], errs[i] = conc.SpeedupDigest(b, c.args, c.pt.Reuse)
			}(i)
		}
		wg.Wait()
		for i := 0; i < callers; i++ {
			if errs[i] != nil || sps[i] != c.speed || ds[i] != c.digest {
				t.Fatalf("concurrent %s %s caller %d: got (%v, %+v, %v), want (%v, %+v)",
					c.b.Name, c.pt.Label, i, sps[i], ds[i], errs[i], c.speed, c.digest)
			}
		}
	}
}

// TestBaseDigestSharesBaseRun requires BaseDigest on a cold suite to run
// the base program once for both results: the digest equals
// core.DigestRun's, the BaseSim that follows equals core.Simulate's and
// hits the cache BaseDigest filled, and a store-backed suite persists
// both entries. When BaseSim ran first, BaseDigest finds its run in the
// cache and computes the digest on its own.
func TestBaseDigestSharesBaseRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = workloads.Tiny
	b := workloads.Load("compress", workloads.Tiny)
	opts := cfg.Opts
	wantSim, err := core.Simulate(b.Prog, nil, opts.Uarch, b.Ref, opts.Limit)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, err := core.DigestRun(b.Prog, nil, b.Ref, opts.Limit)
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, s *Suite, digestFirst bool) {
		t.Helper()
		var d oracle.Digest
		var sim *core.SimResult
		if digestFirst {
			if d, err = s.BaseDigest(b, b.Ref); err == nil {
				sim, err = s.BaseSim(b, b.Ref)
			}
		} else {
			if sim, err = s.BaseSim(b, b.Ref); err == nil {
				d, err = s.BaseDigest(b, b.Ref)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if d != wantDigest {
			t.Errorf("%s: digest %+v, want %+v", path, d, wantDigest)
		}
		if !reflect.DeepEqual(sim, wantSim) {
			t.Errorf("%s: base sim %+v, want %+v", path, sim, wantSim)
		}
		if st := s.baseSim.Stats(); st.Misses != 1 || st.Hits != 1 {
			t.Errorf("%s: base_sim cache %+v, want one timed base run", path, st)
		}
	}
	check("digest first", NewSuiteOf(cfg, []*workloads.Benchmark{b}), true)
	check("sim first", NewSuiteOf(cfg, []*workloads.Benchmark{b}), false)

	dir := filepath.Join(t.TempDir(), "store")
	cold := NewSuiteOf(storeConfig(t, dir), []*workloads.Benchmark{b})
	check("digest first, stored", cold, true)
	if st := cold.Store().Stats(); st.Puts != 2 {
		t.Errorf("cold store: %d puts, want the base_sim and digest entries", st.Puts)
	}
	warm := NewSuiteOf(storeConfig(t, dir), []*workloads.Benchmark{b})
	d, err := warm.BaseDigest(b, b.Ref)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := warm.BaseSim(b, b.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if d != wantDigest || sim.Cycles != wantSim.Cycles || sim.Result != wantSim.Result {
		t.Errorf("warm store: digest %+v, cycles %d, result %d", d, sim.Cycles, sim.Result)
	}
	if st := warm.Store().Stats(); st.Puts != 0 || st.Hits != 2 {
		t.Errorf("warm store: %+v, want 2 hits and no puts", st)
	}
}
