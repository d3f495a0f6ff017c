package obsv

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedProcs models a kill/resume sweep: coord-100 commits cell a, leases
// cell b to a worker that dies mid-compute (requeue, no commit), then the
// resumed coord-200 recomputes and commits b and c.
func fixedProcs() ([]ProcSpans, []string) {
	cells := []string{"a", "b", "c"}
	procs := []ProcSpans{
		{Proc: "coord-100", Spans: []Span{
			{Cell: "a", Phase: "lease", Slot: "w0", Seq: -1, StartUS: 0, DurUS: 1500},
			{Cell: "a", Phase: "commit", Slot: "w0", Seq: 0, StartUS: 1500, DurUS: 40},
			{Cell: "b", Phase: "lease", Slot: "w0", Seq: -1, StartUS: 1600, DurUS: 900},
			{Cell: "b", Phase: "requeue", Slot: "w0", Seq: -1, StartUS: 2500, DurUS: 0, Err: "worker died"},
		}, Torn: true},
		{Proc: "coord-200", Spans: []Span{
			{Cell: "b", Phase: "retry", Slot: "w0", Seq: -1, StartUS: 0, DurUS: 1200},
			{Cell: "b", Phase: "commit", Slot: "w0", Seq: 1, StartUS: 1200, DurUS: 30},
			{Cell: "c", Phase: "store-hit", Slot: "inline", Seq: -1, StartUS: 1300, DurUS: 80},
			{Cell: "c", Phase: "commit", Slot: "inline", Seq: 2, StartUS: 1400, DurUS: 25},
		}},
		{Proc: "worker-150", Spans: []Span{
			{Cell: "a", Phase: "compute", Slot: "worker", Seq: -1, StartUS: 100, DurUS: 1300},
			{Cell: "b", Phase: "attempt", Slot: "worker", Seq: -1, StartUS: 1700, DurUS: 600, Err: "killed"},
		}},
	}
	return procs, cells
}

// TestTimelineGolden pins the merged Perfetto JSON schema byte-for-byte.
func TestTimelineGolden(t *testing.T) {
	procs, cells := fixedProcs()
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, procs, cells); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline.golden.json", buf.Bytes())
}

// clockProcs is a ccrsim reuse-event log: spans on the cycle clock, one
// lane per region or memory object, with no journal.
func clockProcs() []ProcSpans {
	return []ProcSpans{{Proc: "ccrsim-7", Spans: []Span{
		{Cell: "40", Phase: "enter", Slot: "region 3", Seq: -1, StartUS: 100},
		{Cell: "40", Phase: "hit", Slot: "region 3", Seq: -1, StartUS: 180, DurUS: 12, N: 12},
		{Cell: "96", Phase: "inval", Slot: "mem 2", Seq: -1, StartUS: 250, N: 1},
	}}}
}

// TestClockTimelineGolden pins the no-journal layout: the enter and
// inval spans are instants at their cycle stamps, the hit is an X span
// whose dur is the eliminated instruction count, n rides in args, and
// each lane gets process/thread metadata.
func TestClockTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteClockTimeline(&buf, clockProcs()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "timeline_nojournal.golden.json", buf.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		os.MkdirAll("testdata", 0o755)
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestTimelineShape(t *testing.T) {
	procs, cells := fixedProcs()
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, procs, cells); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   struct {
			JournalCells int  `json:"journal_cells"`
			Spans        int  `json:"spans"`
			Torn         bool `json:"torn"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged timeline is not JSON: %v", err)
	}
	if doc.OtherData.JournalCells != 3 || doc.OtherData.Spans != 10 || !doc.OtherData.Torn {
		t.Fatalf("otherData %+v", doc.OtherData)
	}
	// Spans from both sides of the kill share one trace, laid out by
	// journal sequence: cell b's retry (coord-200) must start in slot 1.
	var sawRetry, sawMeta bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			sawMeta = true
		case "X":
			if ev["name"] == "retry" {
				sawRetry = true
				if ts := ev["ts"].(float64); ts < 1000 || ts >= 2000 {
					t.Errorf("retry of cell b at ts %v, want within slot [1000,2000)", ts)
				}
			}
		}
	}
	if !sawRetry || !sawMeta {
		t.Fatalf("missing events: retry=%v meta=%v", sawRetry, sawMeta)
	}
}

func TestTimelineExactlyOnce(t *testing.T) {
	procs, cells := fixedProcs()

	// A journal cell with no commit span.
	if _, err := mergeTimeline(procs, append(append([]string(nil), cells...), "ghost")); err == nil ||
		!strings.Contains(err.Error(), "no commit span") {
		t.Errorf("uncommitted journal cell accepted: %v", err)
	}
	// A duplicate commit (two processes claim the same cell).
	dup := append([]ProcSpans(nil), procs...)
	dup = append(dup, ProcSpans{Proc: "rogue", Spans: []Span{
		{Cell: "a", Phase: "commit", Seq: 0},
	}})
	if _, err := mergeTimeline(dup, cells); err == nil ||
		!strings.Contains(err.Error(), "committed 2 times") {
		t.Errorf("duplicate commit accepted: %v", err)
	}
	// A commit for a cell the journal never recorded.
	rogue := append([]ProcSpans(nil), procs...)
	rogue = append(rogue, ProcSpans{Proc: "rogue", Spans: []Span{
		{Cell: "phantom", Phase: "commit", Seq: 9},
	}})
	if _, err := mergeTimeline(rogue, cells); err == nil ||
		!strings.Contains(err.Error(), "absent from journal") {
		t.Errorf("out-of-journal commit accepted: %v", err)
	}
	// Duplicate journal cell list is a caller bug, reported not paniced.
	if _, err := mergeTimeline(procs, []string{"a", "a"}); err == nil {
		t.Error("duplicate journal cell accepted")
	}
	// Non-commit spans for unjournaled cells (failed attempts) are laid
	// out in extra slots, not rejected.
	extra := append([]ProcSpans(nil), procs...)
	extra = append(extra, ProcSpans{Proc: "zz", Spans: []Span{
		{Cell: "never-finished", Phase: "attempt", Seq: -1, Err: "oom"},
	}})
	doc, err := mergeTimeline(extra, cells)
	if err != nil {
		t.Fatalf("failed-attempt-only cell rejected: %v", err)
	}
	if doc.OtherData.ExtraCells != 1 {
		t.Fatalf("extra cells %d, want 1", doc.OtherData.ExtraCells)
	}
}
