package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ccr/internal/experiments"
	"ccr/internal/obsv"
	"ccr/internal/store"
	"ccr/internal/workloads"
)

// Config drives one fabric run.
type Config struct {
	// Dir is the run's state directory: journal.jsonl (the resume log),
	// digests.json and manifest.json land here.
	Dir string
	// ScaleName selects the workload scale by CLI name (default "tiny").
	ScaleName string
	// Benches restricts the plan to these benchmarks (empty = all).
	Benches []string
	// Jobs is the number of cells computed at once on the run's pool; 0
	// or 1 computes them one at a time. It does not default to
	// GOMAXPROCS: a caller that already runs one Run per CPU would
	// otherwise put twice as many cells in flight as there are CPUs.
	Jobs int
	// StoreDir roots the shared content-addressed artifact store; empty
	// disables store layering (cells still journal, partial pipeline work
	// is not reused).
	StoreDir string
	// Revision is the store revision (default store.DefaultRevision()).
	Revision string
	// SpanDir, when set, records this process's span log under it as
	// coord-<pid>.jsonl, for `ccrviz timeline`. Empty disables span
	// recording entirely (the SpanLog stays nil).
	SpanDir string
	// Log receives run events (default slog.Default()).
	Log *slog.Logger

	// HookAfterCell, when set, runs after every journaled cell with the
	// number of cells completed so far by this process — the chaos seam
	// kill-tolerance tests use to die at a deterministic point. It runs
	// under the lock that journals each cell, so a hook that kills the
	// process never lands between a cell's append and its commit span.
	HookAfterCell func(done int)
}

// Manifest is the fabric run's structured record: plan size, how much was
// resumed vs computed, the failed cells, and the artifact-store counters
// with the resume-effectiveness hit rate.
type Manifest struct {
	Scale       string       `json:"scale"`
	Revision    string       `json:"revision"`
	Start       time.Time    `json:"start"`
	WallSeconds float64      `json:"wall_seconds"`
	Cells       int          `json:"cells"`
	Resumed     int          `json:"resumed"`
	Computed    int          `json:"computed"`
	TornTail    bool         `json:"torn_tail,omitempty"`
	Failed      []string     `json:"failed,omitempty"`
	Store       *store.Stats `json:"store,omitempty"`
	// StoreHitRate is hits/(hits+misses) over the run — the resume
	// acceptance metric (a rerun over a warm store approaches 1).
	StoreHitRate float64 `json:"store_hit_rate,omitempty"`
}

// DigestRow is one digests.json entry, in plan order.
type DigestRow struct {
	Cell string  `json:"cell"`
	Out  CellOut `json:"out"`
}

// Result is what Run hands back (and persists under Dir).
type Result struct {
	Manifest Manifest
	Digests  []DigestRow
}

type coordinator struct {
	cfg     Config
	plan    []CellSpec
	journal *Journal
	spans   *obsv.SpanLog // nil without Config.SpanDir; all emits nil-safe

	// mu serializes each cell's journal append, commit span and
	// HookAfterCell, and guards done and man.Computed.
	mu   sync.Mutex
	done map[string]Record
	man  Manifest
}

// Run executes (or resumes) one fabric sweep. Cells already present in
// Dir's journal are skipped; the rest are computed Jobs at a time. It
// returns the run's result after writing digests.json and manifest.json,
// with a non-nil error when any cell failed.
func Run(cfg Config) (*Result, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fabric: Config.Dir is required")
	}
	if cfg.ScaleName == "" {
		cfg.ScaleName = "tiny"
	}
	if cfg.Revision == "" {
		cfg.Revision = store.DefaultRevision()
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	scale, err := workloads.ParseScale(cfg.ScaleName)
	if err != nil {
		return nil, err
	}
	// The benchmarks are built once per run. The plan suite only reads
	// their names and the sweep matrix; the compute suite is the only one
	// that runs them.
	benches, err := resolveBenches(scale, cfg.Benches)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: state dir: %w", err)
	}
	planCfg := experiments.DefaultConfig()
	planCfg.Scale = scale
	plan := Plan(experiments.NewSuiteOf(planCfg, benches))

	journal, prior, torn, err := RecoverJournal(filepath.Join(cfg.Dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	if torn {
		cfg.Log.Warn("fabric: discarded torn journal tail")
	}

	c := &coordinator{
		cfg:     cfg,
		plan:    plan,
		journal: journal,
		done:    map[string]Record{},
		man: Manifest{
			Scale: cfg.ScaleName, Revision: cfg.Revision,
			Start: time.Now(), Cells: len(plan), TornTail: torn,
		},
	}
	if cfg.SpanDir != "" {
		sl, err := obsv.OpenSpanLog(cfg.SpanDir, fmt.Sprintf("coord-%d", os.Getpid()))
		if err != nil {
			return nil, err
		}
		defer sl.Close()
		c.spans = sl
	}
	var pending []int
	for i, spec := range plan {
		if rec, ok := prior[spec.ID()]; ok {
			c.done[spec.ID()] = rec
			c.man.Resumed++
		} else {
			pending = append(pending, i)
		}
	}

	if err := c.compute(scale, benches, pending); err != nil {
		return nil, err
	}
	// The one fsync of the run: every journaled cell is durable before
	// digests.json reports it.
	if err := journal.Sync(); err != nil {
		return nil, err
	}

	c.man.WallSeconds = time.Since(c.man.Start).Seconds()
	if st := c.man.Store; st != nil && st.Hits+st.Misses > 0 {
		c.man.StoreHitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	sort.Strings(c.man.Failed)

	res := &Result{Manifest: c.man}
	for _, spec := range plan {
		if rec, ok := c.done[spec.ID()]; ok {
			res.Digests = append(res.Digests, DigestRow{Cell: spec.ID(), Out: rec.Out})
		}
	}
	if err := writeJSON(filepath.Join(cfg.Dir, "digests.json"), res.Digests); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(cfg.Dir, "manifest.json"), &res.Manifest); err != nil {
		return nil, err
	}
	if n := len(c.man.Failed); n > 0 {
		return res, fmt.Errorf("fabric: %d/%d cells failed (first: %s)", n, len(plan), c.man.Failed[0])
	}
	return res, nil
}

// resolveBenches builds the benchmarks a run covers, in the canonical
// order the plan lays cells out in: every benchmark when names is empty,
// else the named ones. An unknown name is an error naming the known
// benchmarks, so a typo cannot silently drop a benchmark from the sweep.
func resolveBenches(scale workloads.Scale, names []string) ([]*workloads.Benchmark, error) {
	if len(names) == 0 {
		return workloads.All(scale), nil
	}
	known := workloads.Names()
	want := map[string]bool{}
	for _, n := range names {
		if !slices.Contains(known, n) {
			return nil, fmt.Errorf("fabric: bench filter: unknown benchmark %q (known: %s)",
				n, strings.Join(known, ", "))
		}
		want[n] = true
	}
	var out []*workloads.Benchmark
	for _, n := range known {
		if want[n] {
			out = append(out, workloads.Load(n, scale))
		}
	}
	return out, nil
}

// dispatchOrder lays the pending cells out benchmark-interleaved, as
// Suite.Grid does: the first cells dispatched name distinct benchmarks,
// so concurrent cells do not all queue on one benchmark's single-flight
// base run. Within a benchmark the cells keep plan order, so a
// one-benchmark run computes them in plan order at any width.
func dispatchOrder(plan []CellSpec, pending []int) []int {
	var byBench [][]int
	at := map[string]int{}
	for _, i := range pending {
		b, ok := at[plan[i].Bench]
		if !ok {
			b = len(byBench)
			at[plan[i].Bench] = b
			byBench = append(byBench, nil)
		}
		byBench[b] = append(byBench[b], i)
	}
	order := make([]int, 0, len(pending))
	for k := 0; len(order) < len(pending); k++ {
		for _, cells := range byBench {
			if k < len(cells) {
				order = append(order, cells[k])
			}
		}
	}
	return order
}

// compute runs the pending cells on one suite's pool, Jobs at a time,
// and journals each as it completes. A failing or panicking cell is
// recorded in the manifest's Failed list; the other cells still run.
func (c *coordinator) compute(scale workloads.Scale, benches []*workloads.Benchmark, pending []int) error {
	sCfg := experiments.DefaultConfig()
	sCfg.Scale = scale
	sCfg.Jobs = max(c.cfg.Jobs, 1)
	if c.cfg.StoreDir != "" {
		st, err := store.Open(store.Options{Dir: c.cfg.StoreDir, Revision: c.cfg.Revision})
		if err != nil {
			return err
		}
		sCfg.Store = st
	}
	suite := experiments.NewSuiteOf(sCfg, benches)
	order := dispatchOrder(c.plan, pending)
	errs := suite.MapErrs(len(order),
		func(k int) string { return c.plan[order[k]].ID() },
		func(k int) error { return c.computeOne(suite, order[k]) })
	for k, err := range errs {
		if err != nil {
			// Strip the pool's "runner: cell <id>" wrapper; the cell ID
			// leads the entry instead.
			c.man.Failed = append(c.man.Failed, c.plan[order[k]].ID()+": "+errors.Unwrap(err).Error())
		}
	}
	if st := suite.Store(); st != nil {
		stats := st.Stats()
		c.man.Store = &stats
	}
	return nil
}

// computeOne computes plan cell i and journals it.
func (c *coordinator) computeOne(suite *experiments.Suite, i int) error {
	id := c.plan[i].ID()
	start := time.Now()
	spanStart := c.spans.Now()
	var before store.Stats
	if st := suite.Store(); c.spans != nil && st != nil {
		before = st.Stats()
	}
	out, err := computeCell(suite, c.plan[i])
	if err != nil {
		c.spans.EmitPhase(id, "attempt", "inline", -1, spanStart, err.Error())
		return err
	}
	// A cell fully served from the store did puts-free hits; anything
	// else counts as computed work. The store counters are shared by
	// every cell in flight, so at Jobs > 1 a concurrent cell's puts can
	// label a store-hit cell compute.
	phase := "compute"
	if st := suite.Store(); c.spans != nil && st != nil {
		after := st.Stats()
		if after.Hits > before.Hits && after.Puts == before.Puts {
			phase = "store-hit"
		}
	}
	c.spans.EmitPhase(id, phase, "inline", -1, spanStart, "")
	return c.recordDone(Record{Cell: id, Out: out, Slot: "inline", Seconds: time.Since(start).Seconds()})
}

// recordDone journals one computed cell and updates the run accounting.
// The commit span it emits is the one span kind that carries the cell's
// journal sequence number — the anchor the timeline merge validates
// exactly-once coverage against.
func (c *coordinator) recordDone(rec Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	commitStart := c.spans.Now()
	seq, err := c.journal.Append(rec)
	if err != nil {
		return err
	}
	c.spans.EmitPhase(rec.Cell, "commit", rec.Slot, seq, commitStart, "")
	c.done[rec.Cell] = rec
	c.man.Computed++
	if c.cfg.HookAfterCell != nil {
		c.cfg.HookAfterCell(c.man.Computed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
