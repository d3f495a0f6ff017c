package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/obsv"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/telemetry"
	"ccr/internal/workloads"
)

// spanLog opens a span log in a fresh directory; readSpans closes it and
// reads every span back.
func spanLog(t *testing.T) (*obsv.SpanLog, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := obsv.OpenSpanLog(dir, "ccrsim-1")
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func readSpans(t *testing.T, l *obsv.SpanLog, dir string) []obsv.ProcSpans {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	procs, err := obsv.ReadSpanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

// phaseCounts tallies the spans of procs by phase.
func phaseCounts(procs []obsv.ProcSpans) map[string]int64 {
	n := map[string]int64{}
	for _, p := range procs {
		for _, s := range p.Spans {
			n[s.Phase]++
		}
	}
	return n
}

// TestTelemetryDoesNotPerturbSimulation is the timing-level half of the
// zero-overhead sink invariant (DESIGN.md §9): attaching the full
// telemetry bundle — metrics sink on the CRB plus the span tracer teed
// into the timing tracer — must leave every architectural and
// microarchitectural observable of the run bit-identical to the
// uninstrumented path.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	base := buildScanBench(t)
	opts := DefaultOptions()
	const iters = 1000
	cr, err := Compile(base, []int64{iters}, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	plain, err := Simulate(cr.Prog, &opts.CRB, opts.Uarch, []int64{iters}, 0)
	if err != nil {
		t.Fatalf("simulate plain: %v", err)
	}
	spans, dir := spanLog(t)
	tel := &Telemetry{Metrics: telemetry.NewMetrics(), Spans: spans}
	instr, err := SimulateReuse(cr.Prog, reuse.CCR(opts.CRB), opts.Uarch, []int64{iters}, 0, tel)
	if err != nil {
		t.Fatalf("simulate instrumented: %v", err)
	}

	if plain.Result != instr.Result {
		t.Errorf("Result diverged: %d vs %d", plain.Result, instr.Result)
	}
	if plain.Cycles != instr.Cycles {
		t.Errorf("Cycles diverged: %d vs %d", plain.Cycles, instr.Cycles)
	}
	if !reflect.DeepEqual(plain.Emu, instr.Emu) {
		t.Errorf("emu stats diverged:\nplain: %+v\ninstr: %+v", plain.Emu, instr.Emu)
	}
	if plain.Uarch != instr.Uarch {
		t.Errorf("uarch stats diverged:\nplain: %+v\ninstr: %+v", plain.Uarch, instr.Uarch)
	}
	if *plain.CRB != *instr.CRB {
		t.Errorf("CRB stats diverged:\nplain: %+v\ninstr: %+v", *plain.CRB, *instr.CRB)
	}
	if phaseCounts(readSpans(t, spans, dir))["hit"] == 0 {
		t.Error("span log recorded no hits on a reuse-heavy run")
	}
}

// TestTelemetryPreservesOracleDigest is the oracle-level transparency
// gate: a CCR run with the metrics sink and span tracer attached must
// produce the exact architectural digest — including the full dynamic
// trace checksum, which Compare deliberately ignores — of the same run
// uninstrumented.
func TestTelemetryPreservesOracleDigest(t *testing.T) {
	base := buildScanBench(t)
	opts := DefaultOptions()
	const iters = 800
	cr, err := Compile(base, []int64{iters}, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	plain, err := DigestRun(cr.Prog, &opts.CRB, []int64{iters}, 0)
	if err != nil {
		t.Fatalf("digest plain: %v", err)
	}

	m := emu.New(cr.Prog)
	buf := crb.New(opts.CRB, cr.Prog)
	buf.SetSink(telemetry.NewMetrics())
	m.CRB = buf
	col := oracle.NewCollector(cr.Prog)
	spans, dir := spanLog(t)
	m.Trace = emu.Tee(col.Tracer(), spanTracer(spans, func() int64 { return 0 }))
	res, err := m.Run(iters)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	instr := col.Finish(res, m.Mem)

	if err := oracle.Compare(plain, instr); err != nil {
		t.Fatalf("telemetry broke transparency: %v", err)
	}
	if plain != instr {
		t.Fatalf("digest identity diverged:\nplain: %+v\ninstr: %+v", plain, instr)
	}
	if phaseCounts(readSpans(t, spans, dir))["hit"] == 0 {
		t.Error("span log recorded no hits")
	}
}

// TestMetricsSumToFlatStats pins the partition invariant documented on
// RegionMetrics: the cause-attributed per-region counters, summed over all
// regions, reproduce the flat crb.Stats totals exactly. A deliberately
// tiny CRB (2 entries × 1 instance) forces conflict evictions and slot
// overwrites alongside the invalidation traffic the mutating table
// generates, so every counter pair is exercised with nonzero values.
func TestMetricsSumToFlatStats(t *testing.T) {
	b, err := workloads.Lookup("m88ksim", workloads.Small)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	cr, err := Compile(b.Prog, b.Train, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	cfg := crb.Config{Entries: 2, Instances: 1}
	spans, dir := spanLog(t)
	tel := &Telemetry{Metrics: telemetry.NewMetrics(), Spans: spans}
	res, err := SimulateReuse(cr.Prog, reuse.CCR(cfg), opts.Uarch, b.Train, 0, tel)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}

	st := *res.CRB
	s := tel.Metrics.Summary()
	check := func(name string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: telemetry sum %d != flat stat %d", name, got, want)
		}
	}
	check("Lookups", s.Lookups, st.Lookups)
	check("Hits", s.Hits, st.Hits)
	check("TagMisses = cold+conflict", s.MissCold+s.MissConflict, st.TagMisses)
	check("InputMisses = input+mem-invalid", s.MissInput+s.MissMemInvalid, st.InputMisses)
	check("Records", s.Commits, st.Records)
	check("RecordFails", s.CommitFails, st.RecordFails)
	check("Evictions", s.Evictions, st.Evictions)
	check("Invalidates", s.Invalidated, st.Invalidates)
	check("emu Invalidations", s.Invalidations, res.Emu.Invalidations)

	// Per-object fan-out totals must also agree with the flat invalidated
	// instance count.
	var fanout int64
	for _, mr := range tel.Metrics.Report().Mem {
		fanout += mr.Fanout
	}
	check("mem fan-out", fanout, st.Invalidates)

	// The tiny geometry must actually have exercised the interesting
	// causes, or the partition check proves nothing.
	if s.MissConflict == 0 || s.Evictions == 0 {
		t.Errorf("geometry too gentle: no conflict pressure in %+v", s)
	}
	if s.Invalidated == 0 {
		t.Errorf("no invalidation traffic in %+v", s)
	}

	// Span-side cross-check: span counts equal the emulator's own view.
	n := phaseCounts(readSpans(t, spans, dir))
	check("hit spans", n["hit"], res.Emu.ReuseHits)
	check("enter spans", n["enter"], res.Emu.ReuseMisses)
	check("inval spans", n["inval"], res.Emu.Invalidations)
}

// TestSpanTimelineMatchesRun is the end-to-end check behind `ccrsim
// -spans D` followed by `ccrviz timeline -dir D`: the rendered Chrome
// trace is valid JSON whose hit/enter/inval event counts equal the run's
// reuse hits, misses and invalidations, with every hit an X span lasting
// its eliminated instructions on the cycle clock.
func TestSpanTimelineMatchesRun(t *testing.T) {
	b, err := workloads.Lookup("compress", workloads.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	cr, err := Compile(b.Prog, b.Train, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	spans, dir := spanLog(t)
	res, err := SimulateReuse(cr.Prog, reuse.CCR(opts.CRB), opts.Uarch, b.Train, 0, &Telemetry{Spans: spans})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	var buf bytes.Buffer
	if err := obsv.WriteClockTimeline(&buf, readSpans(t, spans, dir)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  *int    `json:"pid"`
			Args struct {
				N float64 `json:"n"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not JSON: %v", err)
	}
	n := map[string]int64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.PID == nil {
			t.Fatalf("event %q lacks ph or pid", ev.Name)
		}
		if ev.Ph == "M" {
			continue
		}
		n[ev.Name]++
		if ev.TS < 0 || ev.TS > float64(res.Cycles) {
			t.Errorf("%s at ts %v, outside the run's %d cycles", ev.Name, ev.TS, res.Cycles)
		}
		if ev.Name == "hit" && (ev.Ph != "X" || ev.Dur != ev.Args.N || ev.Dur < 1) {
			t.Errorf("hit event ph %q dur %v n %v, want an X span lasting n", ev.Ph, ev.Dur, ev.Args.N)
		}
	}
	if res.Emu.ReuseHits == 0 || res.Emu.ReuseMisses == 0 {
		t.Fatalf("compress tiny ran no reuse: %+v", res.Emu)
	}
	for _, c := range []struct {
		phase string
		want  int64
	}{{"hit", res.Emu.ReuseHits}, {"enter", res.Emu.ReuseMisses}, {"inval", res.Emu.Invalidations}} {
		if n[c.phase] != c.want {
			t.Errorf("%s events %d, want %d", c.phase, n[c.phase], c.want)
		}
	}
}
