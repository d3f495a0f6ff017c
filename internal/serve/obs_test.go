package serve

import (
	"path/filepath"
	"testing"

	"ccr/internal/obsv"
	"ccr/internal/store"
)

// TestTopStreams exercises the top op end to end: bounded snapshot
// counts, the always-on reuse totals, and the final TopResp accounting.
func TestTopStreams(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 2})
	cl := dial(t, addr)

	// Serve one timed cell so the reuse totals have content.
	if _, err := cl.Simulate(SimulateReq{Bench: "compress", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}

	var snaps []TopSnapshot
	resp, err := cl.Top(TopReq{IntervalMS: 50, Count: 2}, func(s TopSnapshot) {
		snaps = append(snaps, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Snapshots != 2 || len(snaps) != 2 {
		t.Fatalf("snapshots = %d (resp %d), want 2", len(snaps), resp.Snapshots)
	}
	s := snaps[1]
	if s.Requests[OpSimulate] != 1 {
		t.Errorf("snapshot simulate count = %d, want 1", s.Requests[OpSimulate])
	}
	// The top request itself is in flight while the snapshot is taken.
	if s.InFlight < 1 || len(s.Active) < 1 || s.Active[0].Op != OpTop {
		t.Errorf("active table = %+v in_flight=%d, want the top request", s.Active, s.InFlight)
	}
	ccr, ok := s.Reuse["ccr"]
	if !ok || ccr.Cells != 1 || ccr.DynInstrs == 0 {
		t.Errorf("reuse totals = %+v, want 1 ccr cell with instructions", s.Reuse)
	}
	if s.Goroutines <= 0 || s.HeapBytes == 0 || s.UptimeSeconds <= 0 {
		t.Errorf("runtime fields empty: %+v", s)
	}

	// Count 0 means exactly one snapshot.
	n := 0
	if _, err := cl.Top(TopReq{Count: 0}, func(TopSnapshot) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("count 0 streamed %d snapshots, want 1", n)
	}
	if _, err := cl.Top(TopReq{Count: -2}, nil); err == nil {
		t.Error("count -2 accepted")
	}
}

// TestStatsStoreAndReuse pins the stats-op extension: artifact-store
// counters and per-scheme reuse totals, including the DTM trace/head
// counters.
func TestStatsStoreAndReuse(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Jobs: 2, Store: st})
	cl := dial(t, addr)

	for _, req := range []SimulateReq{
		{Bench: "compress", Scale: "tiny", Base: true},
		{Bench: "compress", Scale: "tiny"},
		{Bench: "compress", Scale: "tiny", Scheme: "dtm"},
	} {
		if _, err := cl.Simulate(req); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Store == nil || stats.Store.Puts == 0 {
		t.Fatalf("Store = %+v, want non-nil with puts", stats.Store)
	}
	for _, scheme := range []string{"base", "ccr", "dtm"} {
		tot, ok := stats.Reuse[scheme]
		if !ok || tot.Cells != 1 || tot.DynInstrs == 0 {
			t.Errorf("Reuse[%q] = %+v (ok=%v), want 1 cell", scheme, tot, ok)
		}
	}
	if ccr := stats.Reuse["ccr"]; ccr.ReuseHits+ccr.ReuseMisses == 0 {
		t.Errorf("ccr totals carry no CRB activity: %+v", stats.Reuse["ccr"])
	}
	dtm := stats.Reuse["dtm"]
	if dtm.DTMLookups == 0 || dtm.DTMRecords == 0 || dtm.DTMHeads == 0 {
		t.Errorf("dtm totals missing trace counters: %+v", dtm)
	}
}

// TestSpansTransparent is the zero-overhead proof at the functional
// level: the same cell served by a daemon recording spans and a bare one
// yields byte-identical oracle digests and timing, and the span log holds
// the served request's serve span.
func TestSpansTransparent(t *testing.T) {
	spanDir := t.TempDir()
	spans, err := obsv.OpenSpanLog(spanDir, "ccrd-test")
	if err != nil {
		t.Fatal(err)
	}
	defer spans.Close()

	_, addrA := startServer(t, Config{Jobs: 2, Spans: spans})
	_, addrB := startServer(t, Config{Jobs: 2})

	req := SimulateReq{Bench: "lex", Scale: "tiny", Digest: true}
	a, err := dial(t, addrA).Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dial(t, addrB).Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == nil || b.Digest == nil || *a.Digest != *b.Digest {
		t.Fatalf("digest diverged under instrumentation:\n  with: %+v\n  bare: %+v", a.Digest, b.Digest)
	}
	if a.Result != b.Result || a.Cycles != b.Cycles || a.Emu != b.Emu {
		t.Fatalf("timing diverged under instrumentation:\n  with: %+v\n  bare: %+v", a, b)
	}

	// The request span log recorded the serve spans.
	if err := spans.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn, err := obsv.ReadSpanLog(filepath.Join(spanDir, "ccrd-test.jsonl"))
	if err != nil || torn {
		t.Fatalf("span log: torn=%v err=%v", torn, err)
	}
	found := false
	for _, sp := range got {
		if sp.Cell == OpSimulate && sp.Phase == "serve" && sp.DurUS >= 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no serve span for simulate in %+v", got)
	}
}
