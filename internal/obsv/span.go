// Package obsv records per-process span logs (timed phases of work, one
// JSON line each) and merges them into Chrome trace-event timelines:
// journal-ordered for a fabric sweep, start-ordered for a single run.
//
// A nil *SpanLog is a valid, disabled log: instrumented code calls it
// unconditionally, and a process that never opened one pays a nil check
// and nothing else, staying bit-transparent.
package obsv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// A Span is one timed phase of work, recorded by whichever process did
// it. StartUS and DurUS are on the emitter's own clock: wall
// microseconds since SpanLog open for fabric and ccrd, simulated cycles
// for ccrsim's reuse events. They order spans within one process and
// measure durations, but are never compared across processes: the
// journal merge lays spans out by journal sequence number instead (see
// timeline.go).
type Span struct {
	// Cell is the unit of work (a fabric cell ID, or a request tag for
	// daemon-side request spans).
	Cell string `json:"cell"`
	// Phase is the span kind: lease, retry, attempt, compute, store-hit,
	// commit, requeue — or any process-private vocabulary.
	Phase string `json:"phase"`
	// Slot names the lane doing the work (w0, w1, inline...).
	Slot string `json:"slot,omitempty"`
	// Seq is the cell's journal sequence number when the emitter knows it
	// (commit spans); -1 otherwise.
	Seq int64 `json:"seq"`
	// StartUS/DurUS are the start and duration on the emitter's clock.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// N is the span's count, when its phase has one: instructions a
	// reuse hit eliminated, instances an invalidation killed.
	N int64 `json:"n,omitempty"`
	// Err carries the failure cause for attempt/requeue spans.
	Err string `json:"err,omitempty"`
}

// SpanLog appends spans to one per-process JSONL file. Every span is one
// marshal and one contiguous write, so a SIGKILL leaves at most a torn
// final line — the same durability shape as the fabric journal. A nil
// *SpanLog drops everything: callers hold a possibly-nil field and emit
// unconditionally.
type SpanLog struct {
	mu    sync.Mutex
	f     *os.File
	start time.Time
}

// OpenSpanLog creates dir if needed and opens (appending) the span log
// for the named process, conventionally "<role>-<pid>".
func OpenSpanLog(dir, proc string) (*SpanLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obsv: span dir: %w", err)
	}
	name := strings.Map(func(r rune) rune {
		if r == '/' || r == os.PathSeparator {
			return '_'
		}
		return r
	}, proc)
	f, err := os.OpenFile(filepath.Join(dir, name+".jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obsv: open span log: %w", err)
	}
	return &SpanLog{f: f, start: time.Now()}, nil
}

// Now returns the process-local time to stamp a span start with.
func (l *SpanLog) Now() time.Duration {
	if l == nil {
		return 0
	}
	return time.Since(l.start)
}

// Emit appends one span. Spans are best-effort telemetry: write errors
// are swallowed rather than failing the work being observed.
func (l *SpanLog) Emit(s Span) {
	if l == nil {
		return
	}
	line, err := json.Marshal(s)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	l.f.Write(line)
	l.mu.Unlock()
}

// EmitPhase records a span that started at start (from Now) and ends now.
func (l *SpanLog) EmitPhase(cell, phase, slot string, seq int64, start time.Duration, errMsg string) {
	if l == nil {
		return
	}
	l.Emit(Span{
		Cell: cell, Phase: phase, Slot: slot, Seq: seq,
		StartUS: start.Microseconds(),
		DurUS:   (l.Now() - start).Microseconds(),
		Err:     errMsg,
	})
}

// Close closes the underlying file.
func (l *SpanLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// ProcSpans is one process's span log, identified by its file basename.
type ProcSpans struct {
	Proc  string
	Spans []Span
	// Torn reports that the log ended in an unterminated line (the
	// process was killed mid-append); the complete prefix is still used.
	Torn bool
}

// ReadSpanLog parses one span log. An unterminated final line — a
// mid-append kill — is discarded and reported via torn; a terminated
// line that does not decode means the file is not a span log, and that
// is an error, never a panic.
func ReadSpanLog(path string) (spans []Span, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("obsv: read span log: %w", err)
	}
	off, lineno := 0, 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return spans, true, nil
		}
		line := bytes.TrimSpace(data[off : off+nl])
		lineno++
		if len(line) > 0 {
			var s Span
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, false, fmt.Errorf("obsv: span log %s line %d: %v",
					filepath.Base(path), lineno, err)
			}
			spans = append(spans, s)
		}
		off += nl + 1
	}
	return spans, false, nil
}

// ReadSpanDir loads every *.jsonl span log under dir, sorted by process
// name so downstream rendering is deterministic.
func ReadSpanDir(dir string) ([]ProcSpans, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var procs []ProcSpans
	for _, p := range paths {
		spans, torn, err := ReadSpanLog(p)
		if err != nil {
			return nil, err
		}
		procs = append(procs, ProcSpans{
			Proc:  strings.TrimSuffix(filepath.Base(p), ".jsonl"),
			Spans: spans,
			Torn:  torn,
		})
	}
	return procs, nil
}
