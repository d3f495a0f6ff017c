package fabric

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"ccr/internal/obsv"
)

// TestSpansInlineRun: an inline sweep with SpanDir set writes a
// coordinator span log whose commit spans cover the journal exactly
// once, and the merged timeline validates and parses.
func TestSpansInlineRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny sweep")
	}
	dir := t.TempDir()
	cfg := testConfig(t, dir)
	cfg.SpanDir = filepath.Join(dir, "spans")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	procs, err := obsv.ReadSpanDir(cfg.SpanDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 || !strings.HasPrefix(procs[0].Proc, "coord-") {
		t.Fatalf("span logs = %+v, want one coord log", procs)
	}
	phases := map[string]int{}
	for _, s := range procs[0].Spans {
		phases[s.Phase]++
	}
	if phases["commit"] != res.Manifest.Cells || phases["compute"] != res.Manifest.Cells {
		t.Errorf("phases = %v, want %d commits and computes", phases, res.Manifest.Cells)
	}

	cells, torn, err := JournalCellOrder(filepath.Join(dir, "journal.jsonl"))
	if err != nil || torn {
		t.Fatalf("journal order: torn=%v err=%v", torn, err)
	}
	if len(cells) != res.Manifest.Cells {
		t.Fatalf("journal order has %d cells, want %d", len(cells), res.Manifest.Cells)
	}
	var buf bytes.Buffer
	if err := obsv.WriteTimeline(&buf, procs, cells); err != nil {
		t.Fatalf("timeline merge rejected a clean run: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   struct {
			JournalCells int  `json:"journal_cells"`
			ExtraCells   int  `json:"extra_cells"`
			Torn         bool `json:"torn"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if doc.OtherData.JournalCells != len(cells) || doc.OtherData.ExtraCells != 0 || doc.OtherData.Torn {
		t.Errorf("timeline metadata %+v", doc.OtherData)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("timeline has no events")
	}
}

// TestKillResumeTimeline is the tentpole's distributed-timeline gate: a
// sharded coordinator SIGKILLs itself mid-sweep, a second coordinator
// resumes in the same dir, and the span logs of all four processes
// (two coordinator incarnations, their workers) merge into one timeline
// whose commit spans cover the journal union exactly once across the
// kill/resume seam.
func TestKillResumeTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns coordinator subprocess trees for full tiny sweeps")
	}
	dir := t.TempDir()
	spanDir := filepath.Join(dir, "spans")
	storeDir := filepath.Join(t.TempDir(), "store")
	t.Setenv("CCR_FABRIC_TEST_SPANS", spanDir)

	// One worker keeps recordDone serial, so the SIGKILL cannot land
	// between another slot's journal append and its commit-span write.
	state := spawnCoordinator(t, dir, storeDir, 1, 5)
	if ws, ok := state.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("coordinator did not die by SIGKILL: %v", state)
	}
	state = spawnCoordinator(t, dir, storeDir, 1, 0)
	if !state.Success() {
		t.Fatalf("resumed coordinator failed: %v", state)
	}

	procs, err := obsv.ReadSpanDir(spanDir)
	if err != nil {
		t.Fatal(err)
	}
	var coords, workers int
	for _, p := range procs {
		switch {
		case strings.HasPrefix(p.Proc, "coord-"):
			coords++
		case strings.HasPrefix(p.Proc, "worker-"):
			workers++
		}
	}
	if coords < 2 || workers < 2 {
		t.Fatalf("span logs %d coords / %d workers, want both incarnations: %+v",
			coords, workers, names(procs))
	}

	cells, torn, err := JournalCellOrder(filepath.Join(dir, "journal.jsonl"))
	if err != nil || torn {
		t.Fatalf("journal order after resume: torn=%v err=%v", torn, err)
	}
	var buf bytes.Buffer
	if err := obsv.WriteTimeline(&buf, procs, cells); err != nil {
		t.Fatalf("kill/resume timeline failed exactly-once validation: %v", err)
	}

	// Cross-check: commit events in the rendered trace equal the journal
	// union, each exactly once.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Args struct {
				Cell string `json:"cell"`
				Seq  int64  `json:"seq"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	commits := map[string]int{}
	seqs := map[int64]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "commit" && ev.Ph == "X" {
			commits[ev.Args.Cell]++
			seqs[ev.Args.Seq] = true
		}
	}
	if len(commits) != len(cells) {
		t.Fatalf("trace has %d committed cells, journal %d", len(commits), len(cells))
	}
	for cell, n := range commits {
		if n != 1 {
			t.Errorf("cell %s committed %d times in trace", cell, n)
		}
	}
	// Sequence numbers are a permutation of 0..n-1: the resumed journal
	// seeded its counter past the pre-kill records.
	for want := int64(0); want < int64(len(cells)); want++ {
		if !seqs[want] {
			t.Errorf("no commit span carries seq %d", want)
		}
	}
}

func names(procs []obsv.ProcSpans) []string {
	var out []string
	for _, p := range procs {
		out = append(out, p.Proc)
	}
	return out
}

// TestJournalCellOrder pins ordering and torn-tail semantics.
func TestJournalCellOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if cells, torn, err := JournalCellOrder(path); err != nil || torn || cells != nil {
		t.Fatalf("missing journal: cells=%v torn=%v err=%v", cells, torn, err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range []string{"b", "a", "c"} {
		seq, err := j.Append(Record{Cell: cell, Out: CellOut{}})
		if err != nil {
			t.Fatal(err)
		}
		if seq != int64(i) {
			t.Errorf("seq for %s = %d, want %d", cell, seq, i)
		}
	}
	j.Close()
	cells, torn, err := JournalCellOrder(path)
	if err != nil || torn {
		t.Fatalf("torn=%v err=%v", torn, err)
	}
	if want := []string{"b", "a", "c"}; len(cells) != 3 || cells[0] != want[0] || cells[1] != want[1] || cells[2] != want[2] {
		t.Fatalf("order = %v, want %v", cells, want)
	}

	// A torn tail is reported but does not disturb the valid prefix, and
	// RecoverJournal seeds the next sequence number past the survivors.
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(`{"cell":"d"`)
	f.Close()
	cells, torn, err = JournalCellOrder(path)
	if err != nil || !torn || len(cells) != 3 {
		t.Fatalf("torn tail: cells=%v torn=%v err=%v", cells, torn, err)
	}
	j2, done, torn2, err := RecoverJournal(path)
	if err != nil || !torn2 || len(done) != 3 {
		t.Fatalf("recover: done=%d torn=%v err=%v", len(done), torn2, err)
	}
	defer j2.Close()
	seq, err := j2.Append(Record{Cell: "d", Out: CellOut{}})
	if err != nil || seq != 3 {
		t.Fatalf("post-recovery seq = %d (err %v), want 3", seq, err)
	}
}
