package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// smokeEnv is a reduced-size run: two benchmarks, a short serve stream.
func smokeEnv(t *testing.T, seed int64) *env {
	return &env{seed: seed, budget: time.Second, jobs: runtime.GOMAXPROCS(0), tmp: t.TempDir(),
		benches: []string{"lex", "m88ksim"}, requests: 40, log: os.Stderr}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloadList {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", names, ours)
	}
	for _, l := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range l.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, l.defs) {
			t.Errorf("%s: BENCHMARK.json %v, benchmark prints %v", l.name, got, l.defs)
		}
	}
	// What a run prints is exactly the list, with units.
	out := fill(endToEnd, map[string]float64{"setup_s": 1})
	if len(out) != len(endToEnd) || out["setup_s"] != (metricOut{1, "s"}) {
		t.Errorf("fill: %v", out)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50].
		{ID: 2, Parent: 1, Layer: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "a", Start: 20, End: 50},
		// A nested grandchild is charged to its own parent only.
		{ID: 4, Parent: 3, Layer: "b", Start: 25, End: 35},
		// A child outliving its parent covers only [90, 100] of it.
		{ID: 5, Parent: 1, Layer: "c", Start: 90, End: 130},
		// A child entirely outside its parent covers nothing.
		{ID: 6, Parent: 2, Layer: "d", Start: 40, End: 45},
	}
	want := map[int]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 10, 5: 40, 6: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	layers := layerSelf(spans)
	if d := layers["a"] - 40e-9; d > 1e-15 || d < -1e-15 {
		t.Errorf("layer a self = %v s, want 40ns", layers["a"])
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, beyond := tail(xs)
	if pct != 95 || v != 190 || beyond != 10 {
		t.Errorf("tail = p%v %v (%d beyond), want p95 190 (10 beyond)", pct, v, beyond)
	}
}

func TestServeStreamSeed(t *testing.T) {
	names := []string{"lex", "m88ksim", "go"}
	a, b := serveStreams(1, 200, 2, names), serveStreams(1, 200, 2, names)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different streams")
	}
	if reflect.DeepEqual(a, serveStreams(2, 200, 2, names)) {
		t.Fatal("different seeds, same stream")
	}
	counts := map[string]int{}
	for _, s := range a {
		for _, q := range s {
			counts[q.class]++
		}
	}
	if counts["timed"] != 120 || counts["digest"] != 40 || counts["dtm"] != 20 || counts["repeat"] != 20 {
		t.Errorf("class mix %v, want 120/40/20/20", counts)
	}
}

// TestSmoke runs each workload at reduced size, untraced with two seeds
// and traced once; every output check must pass, and the seed must leave
// the fig8 and verify outputs (checked against the same references)
// unchanged.
func TestSmoke(t *testing.T) {
	for _, w := range workloadList {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				e := smokeEnv(t, seed)
				var c checks
				if _, err := w.iterate(e, &c); err != nil {
					t.Fatal(err)
				}
				if w.once != nil {
					if err := w.once(e, &c); err != nil {
						t.Fatal(err)
					}
				}
				if c.failed != 0 || c.attempted == 0 {
					t.Fatalf("seed %d: %d/%d checks failed; first: %s", seed, c.failed, c.attempted, c.first)
				}
			}
			e := smokeEnv(t, 1)
			var c checks
			out := map[string]float64{}
			spans, _, err := w.traced(e, &c, out)
			if err != nil {
				t.Fatal(err)
			}
			if c.failed != 0 || len(spans) == 0 {
				t.Fatalf("traced: %d/%d checks failed (%s), %d spans", c.failed, c.attempted, c.first, len(spans))
			}
			if out["uarch.cycles"] == 0 {
				t.Errorf("traced run reports no simulated cycles: %v", out)
			}
		})
	}
}

// TestPredictionsCoverLayers keeps predictions.json naming every per-layer
// metric exactly once.
func TestPredictionsCoverLayers(t *testing.T) {
	raw, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Layers []struct{ Metrics []string } `json:"layers"`
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, l := range p.Layers {
		for _, m := range l.Metrics {
			seen[m]++
		}
	}
	for _, d := range perLayer {
		if seen[d.Name] != 1 {
			t.Errorf("%s named %d times in predictions.json", d.Name, seen[d.Name])
		}
		delete(seen, d.Name)
	}
	for m := range seen {
		t.Errorf("predictions.json names unknown metric %s", m)
	}
}
