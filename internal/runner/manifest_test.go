package runner

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ccr/internal/buildinfo"
	"ccr/internal/store"
	"ccr/internal/telemetry"
)

// populatedManifest runs a small real pool so the manifest carries every
// section a full experiment run produces: cells (one failed), workers,
// caches, telemetry summaries, failure totals and the build version.
func populatedManifest(t *testing.T) *Manifest {
	t.Helper()
	m := NewManifest("runner-test -jobs 2", 2)
	p := &Pool{Jobs: 2, Manifest: m}
	results := p.Run(context.Background(), []Cell{
		{ID: "ok/a", Do: func(context.Context) error { return nil }},
		{ID: "ok/b", Do: func(context.Context) error { return nil }},
		{ID: "bad/c", Do: func(context.Context) error { return errors.New("boom") }},
	})
	if Errs(results) == nil {
		t.Fatal("expected one failing cell")
	}
	m.SetCache("compile", CacheStats{Hits: 7, Misses: 3})
	m.SetTelemetry("ok/a", telemetry.Summary{
		Regions: 2, Lookups: 100, Hits: 90, MissCold: 2, MissInput: 8,
		Commits: 10, Invalidated: 4, Invalidations: 3})
	m.Finish()
	return m
}

// TestManifestJSONRoundTrip serializes a fully populated manifest and
// decodes it back, requiring every section to survive unchanged — the
// guarantee downstream tooling consuming -manifest files depends on.
func TestManifestJSONRoundTrip(t *testing.T) {
	m := populatedManifest(t)
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest JSON does not decode: %v\n%s", err, data)
	}

	if back.Command != m.Command || back.Jobs != m.Jobs || back.GOMAXPROCS != m.GOMAXPROCS {
		t.Errorf("header fields diverged: %s/%d/%d vs %s/%d/%d",
			back.Command, back.Jobs, back.GOMAXPROCS, m.Command, m.Jobs, m.GOMAXPROCS)
	}
	if back.Version != m.Version {
		t.Errorf("version block diverged: %+v vs %+v", back.Version, m.Version)
	}
	if !reflect.DeepEqual(back.Cells, m.Cells) {
		t.Errorf("cells diverged:\n%+v\n%+v", back.Cells, m.Cells)
	}
	if !reflect.DeepEqual(back.Workers, m.Workers) {
		t.Errorf("workers diverged:\n%+v\n%+v", back.Workers, m.Workers)
	}
	if !reflect.DeepEqual(back.Caches, m.Caches) {
		t.Errorf("caches diverged:\n%+v\n%+v", back.Caches, m.Caches)
	}
	if !reflect.DeepEqual(back.Telemetry, m.Telemetry) {
		t.Errorf("telemetry diverged:\n%+v\n%+v", back.Telemetry, m.Telemetry)
	}
	if back.FailedCells != 1 || len(back.Errors) != 1 {
		t.Errorf("failure totals diverged: failed=%d errors=%v", back.FailedCells, back.Errors)
	}
	if back.WallSeconds != m.WallSeconds || !back.Start.Equal(m.Start) {
		t.Errorf("timing fields diverged")
	}
}

// jsonFields returns the JSON key set a struct type serializes under,
// recursing is deliberately avoided: each type is pinned separately so a
// rename anywhere in the manifest tree fails exactly one golden.
func jsonFields(t *testing.T, v any) []string {
	t.Helper()
	var keys []string
	rt := reflect.TypeOf(v)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "" {
			t.Fatalf("%s.%s has no json tag", rt.Name(), f.Name)
		}
		keys = append(keys, strings.Split(tag, ",")[0])
	}
	sort.Strings(keys)
	return keys
}

// TestManifestSchemaStability pins the JSON key set of every type reachable
// from a run manifest. Renaming or removing a key breaks consumers of
// saved manifests; this test makes such a change a deliberate,
// golden-updating act rather than an accident.
func TestManifestSchemaStability(t *testing.T) {
	golden := map[string][]string{
		"Manifest": {"caches", "cells", "command", "errors", "failed_cells",
			"gomaxprocs", "jobs", "panics", "start", "store", "telemetry",
			"version", "wall_seconds", "workers"},
		"CellRecord":   {"error", "id", "panics", "seconds", "stack", "worker"},
		"WorkerRecord": {"busy_seconds", "cells", "utilization", "worker"},
		"CacheStats":   {"hits", "misses"},
		"store.Stats":  {"corrupt", "hits", "misses", "puts", "stale"},
		"buildinfo.Info": {"go_version", "module", "vcs_modified", "vcs_revision",
			"vcs_time", "version"},
		"telemetry.Summary": {"commit_fails", "commits", "dtm_commits",
			"dtm_evictions", "dtm_heads", "dtm_hits", "dtm_invalidated",
			"dtm_invalidations", "dtm_lookups", "evictions", "hits",
			"invalidated", "invalidations", "lookups", "miss_cold",
			"miss_conflict", "miss_input", "miss_mem_invalid", "regions"},
	}
	got := map[string][]string{
		"Manifest":          jsonFields(t, Manifest{}),
		"CellRecord":        jsonFields(t, CellRecord{}),
		"WorkerRecord":      jsonFields(t, WorkerRecord{}),
		"CacheStats":        jsonFields(t, CacheStats{}),
		"store.Stats":       jsonFields(t, store.Stats{}),
		"buildinfo.Info":    jsonFields(t, buildinfo.Info{}),
		"telemetry.Summary": jsonFields(t, telemetry.Summary{}),
	}
	for name, want := range golden {
		if !reflect.DeepEqual(got[name], want) {
			t.Errorf("%s JSON keys changed:\n got %v\nwant %v\n(update the golden only for a deliberate schema change)",
				name, got[name], want)
		}
	}
}

// TestPoolHeartbeat runs slow cells under a fast heartbeat and checks the
// progress snapshots: they arrive, carry the right total, count
// monotonically, and report sane elapsed/utilization values.
func TestPoolHeartbeat(t *testing.T) {
	var mu sync.Mutex
	var snaps []Progress
	p := &Pool{
		Jobs:      2,
		Heartbeat: time.Millisecond,
		Sink: ProgressFunc(func(pr Progress) {
			mu.Lock()
			snaps = append(snaps, pr)
			mu.Unlock()
		}),
	}
	const n = 4
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{ID: "sleep", Do: func(context.Context) error {
			time.Sleep(10 * time.Millisecond)
			return nil
		}}
	}
	if err := Errs(p.Run(context.Background(), cells)); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no heartbeat snapshots during a ~20ms run with a 1ms interval")
	}
	prev := -1
	for i, pr := range snaps {
		if pr.Total != n {
			t.Errorf("snapshot %d Total = %d, want %d", i, pr.Total, n)
		}
		if pr.Done < prev || pr.Done > n {
			t.Errorf("snapshot %d Done = %d not monotone in [0,%d] (prev %d)", i, pr.Done, n, prev)
		}
		prev = pr.Done
		if pr.Failed != 0 {
			t.Errorf("snapshot %d reports %d failures", i, pr.Failed)
		}
		if pr.Elapsed <= 0 {
			t.Errorf("snapshot %d Elapsed = %v", i, pr.Elapsed)
		}
		if pr.Utilization < 0 || pr.Utilization > 1.5 {
			t.Errorf("snapshot %d Utilization = %v", i, pr.Utilization)
		}
		if pr.Done > 0 && pr.Done < n && pr.ETA <= 0 {
			t.Errorf("snapshot %d mid-run ETA = %v, want > 0", i, pr.ETA)
		}
	}
}

// TestHeartbeatDisabledByDefault: a zero-interval pool must never call
// Progress.
func TestHeartbeatDisabledByDefault(t *testing.T) {
	called := false
	p := &Pool{Jobs: 1, Sink: ProgressFunc(func(Progress) { called = true })}
	p.Run(context.Background(), []Cell{
		{ID: "x", Do: func(context.Context) error { return nil }},
	})
	if called {
		t.Fatal("Progress called with Heartbeat = 0")
	}
}
