package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The timeline merge turns per-process span logs into one Chrome
// trace-event (Perfetto-loadable) document. Span logs with no journal
// are laid out on their own clocks (WriteClockTimeline); the rest of
// this comment describes the journal layout. Wall clocks of different
// processes — a killed coordinator and the one that resumed it — are
// never compared: the journal's append order is the only cross-process
// sequence authority. Each journaled cell gets one fixed-width virtual
// time slot in journal order, and every span is drawn inside its cell's
// slot at a phase-deterministic offset. The process-local measured
// duration is preserved in args.ms.
//
// Virtual layout within a cell's 1000µs slot:
//
//	attempt       [ 50, 900)   a failed execution
//	compute       [100, 900)   the work (store-hit when served from store)
//	commit        [950,1000)   journal append — the durability point
const cellSlotUS = 1000

// phaseGeom returns the virtual offset and duration of a phase inside
// its cell slot.
func phaseGeom(phase string) (offset, dur float64) {
	switch phase {
	case "attempt":
		return 50, 850
	case "commit":
		return 950, 50
	default: // compute, store-hit, request spans, unknown phases
		return 100, 800
	}
}

// chromeEvent is one trace-event line; struct (not map) args keep the
// marshaled output deterministic for the schema golden.
type chromeEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Ph    string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur,omitempty"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Scope string  `json:"s,omitempty"`
	Args  any     `json:"args,omitempty"`
}

type spanArgs struct {
	Cell string  `json:"cell"`
	Slot string  `json:"slot,omitempty"`
	Seq  int64   `json:"seq"`
	MS   float64 `json:"ms"`
	N    int64   `json:"n,omitempty"`
	Err  string  `json:"err,omitempty"`
}

type metaArgs struct {
	Name string `json:"name"`
}

type timelineDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       timelineMeta  `json:"otherData"`
}

type timelineMeta struct {
	JournalCells int  `json:"journal_cells"`
	ExtraCells   int  `json:"extra_cells"`
	Procs        int  `json:"procs"`
	Spans        int  `json:"spans"`
	Torn         bool `json:"torn,omitempty"`
}

// mergeTimeline lays the span logs out on the journal's sequence axis
// and validates exactly-once coverage: every cell in journalCells must
// carry exactly one commit span across all logs, and no commit span may
// name a cell outside the journal. Cells that appear only in non-commit
// spans (e.g. failed attempts never journaled, or request spans) are
// placed in deterministic extra slots after the journaled range.
func mergeTimeline(procs []ProcSpans, journalCells []string) (*timelineDoc, error) {
	slot := make(map[string]int, len(journalCells))
	for i, cell := range journalCells {
		if _, dup := slot[cell]; dup {
			return nil, fmt.Errorf("obsv: timeline: journal cell %q listed twice", cell)
		}
		slot[cell] = i
	}

	// Exactly-once commit coverage against the journal union.
	commits := map[string]int{}
	var extras []string
	seenExtra := map[string]bool{}
	for _, p := range procs {
		for _, s := range p.Spans {
			if s.Phase == "commit" {
				commits[s.Cell]++
			}
			if _, ok := slot[s.Cell]; !ok && !seenExtra[s.Cell] {
				seenExtra[s.Cell] = true
				extras = append(extras, s.Cell)
			}
		}
	}
	for cell, n := range commits {
		if _, ok := slot[cell]; !ok {
			return nil, fmt.Errorf("obsv: timeline: commit span for cell %q absent from journal", cell)
		}
		if n != 1 {
			return nil, fmt.Errorf("obsv: timeline: cell %q committed %d times", cell, n)
		}
	}
	for _, cell := range journalCells {
		if commits[cell] != 1 {
			return nil, fmt.Errorf("obsv: timeline: journal cell %q has no commit span", cell)
		}
	}
	sort.Strings(extras)
	for i, cell := range extras {
		slot[cell] = len(journalCells) + i
	}

	doc := layout(procs, "sweep", func(s Span) (float64, float64, bool) {
		off, dur := phaseGeom(s.Phase)
		return float64(slot[s.Cell]*cellSlotUS) + off, dur, false
	})
	doc.OtherData.JournalCells, doc.OtherData.ExtraCells = len(journalCells), len(extras)
	return doc, nil
}

// layout renders every span of procs as one Chrome event, with one pid
// per process and one tid per slot name; place positions each span.
func layout(procs []ProcSpans, cat string, place func(Span) (ts, dur float64, instant bool)) *timelineDoc {
	// procs arrive sorted from ReadSpanDir; sort defensively so direct
	// callers get the same deterministic pid assignment.
	ps := append([]ProcSpans(nil), procs...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Proc < ps[j].Proc })

	doc := &timelineDoc{DisplayTimeUnit: "ms"}
	doc.OtherData.Procs = len(ps)
	for pi, p := range ps {
		pid := pi + 1
		doc.OtherData.Torn = doc.OtherData.Torn || p.Torn
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, Args: metaArgs{Name: p.Proc},
		})
		// One lane per slot name within the process, sorted.
		lanes := map[string]int{}
		var names []string
		for _, s := range p.Spans {
			if _, ok := lanes[s.Slot]; !ok {
				lanes[s.Slot] = 0
				names = append(names, s.Slot)
			}
		}
		sort.Strings(names)
		for ti, n := range names {
			lanes[n] = ti + 1
			label := n
			if label == "" {
				label = p.Proc
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: ti + 1, Args: metaArgs{Name: label},
			})
		}
		for _, s := range p.Spans {
			ts, dur, instant := place(s)
			ev := chromeEvent{
				Name: s.Phase, Cat: cat, Ph: "X", TS: ts, Dur: dur,
				PID: pid, TID: lanes[s.Slot],
				Args: spanArgs{
					Cell: s.Cell, Slot: s.Slot, Seq: s.Seq,
					MS: float64(s.DurUS) / 1000, N: s.N, Err: s.Err,
				},
			}
			if instant {
				ev.Ph, ev.Dur, ev.Scope = "i", 0, "t"
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
			doc.OtherData.Spans++
		}
	}
	return doc
}

// WriteTimeline merges and writes the trace as indented JSON — the form
// chrome://tracing and ui.perfetto.dev load directly, and the schema the
// golden test pins.
func WriteTimeline(w io.Writer, procs []ProcSpans, journalCells []string) error {
	doc, err := mergeTimeline(procs, journalCells)
	if err != nil {
		return err
	}
	return writeDoc(w, doc)
}

// WriteClockTimeline writes span logs that have no journal, such as
// ccrsim's cycle-stamped reuse events, in WriteTimeline's format. Each
// process's spans are laid out on its own clock: a span starts at
// StartUS and lasts DurUS, and DurUS == 0 draws as an instant.
func WriteClockTimeline(w io.Writer, procs []ProcSpans) error {
	return writeDoc(w, layout(procs, "span", func(s Span) (float64, float64, bool) {
		return float64(s.StartUS), float64(s.DurUS), s.DurUS == 0
	}))
}

func writeDoc(w io.Writer, doc *timelineDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
