package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzExposition drives metric-name validation and the text exposition
// writer with arbitrary names, labels and samples: registration must
// error — never panic — on anything invalid, and whatever registers must
// render to a well-formed exposition with no duplicate series lines and
// a parseable value on every sample.
func FuzzExposition(f *testing.F) {
	f.Add("reqs_total", "help text", "op", "ping", int64(3), 0.25)
	f.Add("", "", "", "", int64(0), 0.0)
	f.Add("1bad", "h", "le", "x", int64(-1), -1.5)
	f.Add("a:b_c", "multi\nline \\help", "lab", `quote"back\slash`+"\n", int64(9), 1e18)
	f.Add("x", "h", "__reserved", "v", int64(1), 0.001)
	f.Add("x", "h", "op", "v", int64(1), 1e-9)

	f.Fuzz(func(t *testing.T, name, help, lname, lval string, n int64, obs float64) {
		r := New()
		var labels []Label
		if lname != "" || lval != "" {
			labels = []Label{L(lname, lval)}
		}
		c, err := r.Counter(name, help, labels...)
		if err == nil {
			c.Add(n)
			c.Inc()
			// The same series again must be rejected, not doubled.
			if _, dup := r.Counter(name, help, labels...); dup == nil {
				t.Fatalf("duplicate series %s{%v} accepted", name, labels)
			}
		}
		if h, err := r.Histogram(name+"_hist", help, []float64{0.01, 1}, labels...); err == nil {
			h.Observe(obs)
		}
		if g, err := r.Gauge(name+"_g", help, labels...); err == nil {
			g.Set(obs)
		}

		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		seen := map[string]bool{}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || strings.HasPrefix(line, "# ") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp <= 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			id, val := line[:sp], line[sp+1:]
			if seen[id] {
				t.Fatalf("duplicate series line %q", id)
			}
			seen[id] = true
			if val != "+Inf" && val != "-Inf" && val != "NaN" {
				if _, err := strconv.ParseFloat(val, 64); err != nil {
					t.Fatalf("unparseable sample value %q in %q", val, line)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan: %v", err)
		}
	})
}

// FuzzSpanTimeline writes arbitrary bytes as a span-log file and renders
// whatever ReadSpanLog accepts through both timeline layouts: the
// journal merge (with the log's own commit cells as the journal) and the
// no-journal clock layout. Each must return an error or valid JSON,
// never panic. Seeded from the golden fixtures' span logs.
func FuzzSpanTimeline(f *testing.F) {
	journalProcs, _ := fixedProcs()
	for _, p := range append(journalProcs, clockProcs()...) {
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
