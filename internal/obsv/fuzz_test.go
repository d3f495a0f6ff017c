package obsv

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSpanTimeline writes arbitrary bytes as a span-log file and renders
// whatever ReadSpanLog accepts through both timeline layouts: the
// journal merge (with the log's own commit cells as the journal) and the
// no-journal clock layout. Each must return an error or valid JSON,
// never panic. Seeded from the golden fixtures' span logs, plus one log
// holding every journal-fixture span, so one log commits a whole sweep.
func FuzzSpanTimeline(f *testing.F) {
	journalProcs, _ := fixedProcs()
	var all ProcSpans
	for _, p := range journalProcs {
		all.Spans = append(all.Spans, p.Spans...)
	}
	for _, p := range append(append(journalProcs, clockProcs()...), all) {
		var log bytes.Buffer
		for _, s := range p.Spans {
			line, _ := json.Marshal(s)
			log.Write(append(line, '\n'))
		}
		f.Add(log.Bytes())
		f.Add(append(log.Bytes(), `{"cell":"torn","pha`...))
	}
	f.Add([]byte("not a span\n"))
	f.Add([]byte("\n\n{}\n"))

	path := filepath.Join(f.TempDir(), "fuzz-1.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spans, torn, err := ReadSpanLog(path)
		if err != nil {
			return
		}
		procs := []ProcSpans{{Proc: "fuzz-1", Spans: spans, Torn: torn}}
		var journal []string
		for _, s := range spans {
			if s.Phase == "commit" {
				journal = append(journal, s.Cell)
			}
		}
		var buf bytes.Buffer
		if err := WriteTimeline(&buf, procs, journal); err == nil && !json.Valid(buf.Bytes()) {
			t.Fatalf("journal timeline is not JSON:\n%s", buf.Bytes())
		}
		buf.Reset()
		if err := WriteClockTimeline(&buf, procs); err != nil {
			t.Fatalf("clock timeline: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("clock timeline is not JSON:\n%s", buf.Bytes())
		}
	})
}
