package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"` // figure cell, plan cell or request id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children. A nil
// tracer records nothing, so untraced runs share the traced code paths.
func (t *tracer) begin(parent int, layer, name, cell string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
		Layer: layer, Name: name, Cell: cell, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(parent int, layer, name, cell string, fn func(id int) error) error {
	id := t.begin(parent, layer, name, cell)
	defer t.end(id)
	return fn(id)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap each other (parallel
// work under one parent) and may outlive their parent; only the union of
// their intervals clipped to the parent's counts.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, p := range spans {
		var covered int64
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		cur, curEnd := int64(-1), int64(-1)
		for _, c := range cs {
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[p.ID] = time.Duration(p.End - p.Start - covered)
	}
	return self
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID].Seconds()
	}
	return out
}

// snapshot returns the recorded spans; every span must have ended.
func (t *tracer) snapshot() ([]span, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for _, s := range out {
		if s.End < 0 {
			return nil, fmt.Errorf("span %d (%s %s) never ended", s.ID, s.Layer, s.Name)
		}
	}
	return out, nil
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
