package fabric

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
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
	// Workers is the local worker-subprocess count. With zero workers the
	// coordinator computes every cell inline, serially — the reference
	// mode every sharded run must byte-match.
	Workers int
	// StoreDir roots the shared content-addressed artifact store; empty
	// disables store layering (cells still journal, partial pipeline work
	// is not reused).
	StoreDir string
	// Revision is the store revision (default store.DefaultRevision()).
	Revision string
	// Lease bounds one cell's time on one worker; an expired lease kills
	// the worker and requeues the cell (default 2m).
	Lease time.Duration
	// MaxRestarts bounds per-slot worker respawns before the slot gives
	// up (default 3). Backoff is the respawn delay base, doubled per
	// consecutive restart (default 100ms).
	MaxRestarts int
	Backoff     time.Duration
	// Exe is the worker executable (default: this executable, re-exec'd
	// with the EnvWorker contract).
	Exe string
	// SpanDir, when set, records per-process span logs under it — the
	// coordinator writes coord-<pid>.jsonl, spawned workers get the dir via
	// EnvSpans and write worker-<pid>.jsonl — for `ccrviz timeline`. Empty
	// disables span recording entirely (the SpanLog stays nil).
	SpanDir string
	// Log receives supervision events (default slog.Default()).
	Log *slog.Logger

	// HookAfterCell, when set, runs after every journaled cell with the
	// number of cells completed so far by this process — the chaos seam
	// kill-tolerance tests use to die at a deterministic point.
	HookAfterCell func(done int)
	// HookOnSpawn, when set, observes every spawned local worker (test
	// seam for process-fault injection).
	HookOnSpawn func(slot, pid int)
}

// SlotRecord is one slot's share of a run.
type SlotRecord struct {
	Slot     string `json:"slot"`
	Cells    int    `json:"cells"`
	Restarts int    `json:"restarts,omitempty"`
	GaveUp   bool   `json:"gave_up,omitempty"`
}

// Manifest is the fabric run's structured record: plan size, how much was
// resumed vs computed, every supervision event class, and the aggregated
// artifact-store counters with the resume-effectiveness hit rate.
type Manifest struct {
	Scale         string       `json:"scale"`
	Revision      string       `json:"revision"`
	Start         time.Time    `json:"start"`
	WallSeconds   float64      `json:"wall_seconds"`
	Cells         int          `json:"cells"`
	Resumed       int          `json:"resumed"`
	Computed      int          `json:"computed"`
	TornTail      bool         `json:"torn_tail,omitempty"`
	Requeues      int          `json:"requeues,omitempty"`
	Restarts      int          `json:"restarts,omitempty"`
	LeaseExpiries int          `json:"lease_expiries,omitempty"`
	Failed        []string     `json:"failed,omitempty"`
	Slots         []SlotRecord `json:"slots,omitempty"`
	Store         *store.Stats `json:"store,omitempty"`
	// StoreHitRate is hits/(hits+misses) across every shard — the resume
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

// sched is the cell dispatcher: a work queue with outstanding-lease
// accounting. Slots pull with next(), then either complete, fail or
// requeue; next() blocks while cells are outstanding because a requeue
// may put them back.
type sched struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []int
	outstanding int
	failed      map[int]string
	aborted     bool
}

func newSched(queue []int) *sched {
	s := &sched{queue: queue, failed: map[int]string{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *sched) next() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && s.outstanding > 0 && !s.aborted {
		s.cond.Wait()
	}
	if s.aborted || len(s.queue) == 0 {
		return 0, false
	}
	i := s.queue[0]
	s.queue = s.queue[1:]
	s.outstanding++
	return i, true
}

func (s *sched) complete() {
	s.mu.Lock()
	s.outstanding--
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *sched) fail(i int, msg string) {
	s.mu.Lock()
	s.failed[i] = msg
	s.outstanding--
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *sched) requeue(i int) {
	s.mu.Lock()
	s.outstanding--
	s.queue = append(s.queue, i)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// abandon fails every cell still queued (no live slots remain to run
// them) and wakes all waiters.
func (s *sched) abandon() {
	s.mu.Lock()
	for _, i := range s.queue {
		s.failed[i] = "abandoned: no live slots"
	}
	s.queue = nil
	s.aborted = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

type coordinator struct {
	cfg     Config
	plan    []CellSpec
	sched   *sched
	journal *Journal
	log     *slog.Logger
	spans   *obsv.SpanLog // nil without Config.SpanDir; all emits nil-safe

	mu       sync.Mutex
	done     map[string]Record
	man      Manifest
	liveSlot int
	retried  map[int]bool // cells that have been requeued at least once
}

// Run executes (or resumes) one fabric sweep. Cells already present in
// Dir's journal are skipped; the rest are sharded across the configured
// slots. It returns the run's result after writing digests.json and
// manifest.json, with a non-nil error when any cell permanently failed.
func Run(cfg Config) (*Result, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fabric: Config.Dir is required")
	}
	if cfg.ScaleName == "" {
		cfg.ScaleName = "tiny"
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 2 * time.Minute
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
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
	// their names and the sweep matrix; the inline suite is the only one
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
		log:     cfg.Log,
		done:    map[string]Record{},
		retried: map[int]bool{},
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
	c.sched = newSched(pending)

	if err := c.runSlots(scale, benches); err != nil {
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
	for i, msg := range c.sched.failed {
		c.man.Failed = append(c.man.Failed, plan[i].ID()+": "+msg)
	}
	sort.Strings(c.man.Failed)
	sort.Slice(c.man.Slots, func(i, j int) bool { return c.man.Slots[i].Slot < c.man.Slots[j].Slot })

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

// runSlots starts one slot per local worker and waits for the sweep to
// drain. Inline mode (no workers) runs on the calling goroutine.
func (c *coordinator) runSlots(scale workloads.Scale, benches []*workloads.Benchmark) error {
	if c.cfg.Workers == 0 {
		return c.runInline(scale, benches)
	}
	c.liveSlot = c.cfg.Workers
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.finishSlot(c.runLocalSlot(w))
		}(w)
	}
	wg.Wait()
	return nil
}

// finishSlot records a slot's accounting and abandons the queue when the
// last live slot gave up with work remaining.
func (c *coordinator) finishSlot(rec SlotRecord) {
	c.mu.Lock()
	c.man.Slots = append(c.man.Slots, rec)
	c.man.Restarts += rec.Restarts
	c.liveSlot--
	last := c.liveSlot == 0
	c.mu.Unlock()
	if last {
		c.sched.abandon()
	}
}

// recordDone journals one computed cell and updates the run accounting.
// The commit span it emits is the one span kind that carries the cell's
// journal sequence number — the anchor the timeline merge validates
// exactly-once coverage against.
func (c *coordinator) recordDone(i int, out CellOut, slot string, secs float64) error {
	commitStart := c.spans.Now()
	rec := Record{Cell: c.plan[i].ID(), Out: out, Slot: slot, Seconds: secs}
	seq, err := c.journal.Append(rec)
	if err != nil {
		return err
	}
	c.spans.EmitPhase(rec.Cell, "commit", slot, seq, commitStart, "")
	c.mu.Lock()
	c.done[rec.Cell] = rec
	c.man.Computed++
	n := c.man.Computed
	c.mu.Unlock()
	c.sched.complete()
	if c.cfg.HookAfterCell != nil {
		c.cfg.HookAfterCell(n)
	}
	return nil
}

func (c *coordinator) noteRequeue(i int, slot, cause string) {
	c.mu.Lock()
	c.man.Requeues++
	if cause == "lease expired" {
		c.man.LeaseExpiries++
	}
	c.retried[i] = true
	c.mu.Unlock()
	now := c.spans.Now()
	c.spans.EmitPhase(c.plan[i].ID(), "requeue", slot, -1, now, cause)
	c.log.Warn("fabric: cell requeued", "cell", c.plan[i].ID(), "slot", slot, "cause", cause)
	c.sched.requeue(i)
}

// leasePhase names a slot-side cell span: "retry" after any requeue of
// the cell, "lease" on the first attempt.
func (c *coordinator) leasePhase(i int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retried[i] {
		return "retry"
	}
	return "lease"
}

func (c *coordinator) addStoreStats(st *store.Stats) {
	if st == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.man.Store == nil {
		c.man.Store = &store.Stats{}
	}
	c.man.Store.Puts += st.Puts
	c.man.Store.Hits += st.Hits
	c.man.Store.Misses += st.Misses
	c.man.Store.Stale += st.Stale
	c.man.Store.Corrupt += st.Corrupt
}

// runInline computes every pending cell serially on the calling
// goroutine — the byte-identity reference for every sharded mode.
func (c *coordinator) runInline(scale workloads.Scale, benches []*workloads.Benchmark) error {
	sCfg := experiments.DefaultConfig()
	sCfg.Scale = scale
	if c.cfg.StoreDir != "" {
		st, err := store.Open(store.Options{Dir: c.cfg.StoreDir, Revision: c.cfg.Revision})
		if err != nil {
			return err
		}
		sCfg.Store = st
	}
	suite := experiments.NewSuiteOf(sCfg, benches)
	for {
		i, ok := c.sched.next()
		if !ok {
			break
		}
		start := time.Now()
		spanStart := c.spans.Now()
		var before store.Stats
		if st := suite.Store(); c.spans != nil && st != nil {
			before = st.Stats()
		}
		out, err := computeCell(suite, c.plan[i])
		if err != nil {
			c.spans.EmitPhase(c.plan[i].ID(), "attempt", "inline", -1, spanStart, err.Error())
			c.sched.fail(i, err.Error())
			continue
		}
		// A cell fully served from the store did puts-free hits; anything
		// else counts as computed work.
		phase := "compute"
		if st := suite.Store(); c.spans != nil && st != nil {
			after := st.Stats()
			if after.Hits > before.Hits && after.Puts == before.Puts {
				phase = "store-hit"
			}
		}
		c.spans.EmitPhase(c.plan[i].ID(), phase, "inline", -1, spanStart, "")
		if err := c.recordDone(i, out, "inline", time.Since(start).Seconds()); err != nil {
			return err
		}
	}
	if st := suite.Store(); st != nil {
		stats := st.Stats()
		c.addStoreStats(&stats)
	}
	c.man.Slots = append(c.man.Slots, SlotRecord{Slot: "inline", Cells: c.man.Computed})
	return nil
}

// ---- local worker slots ----

// workerProc is one live worker subprocess.
type workerProc struct {
	cmd     *exec.Cmd
	stdin   *json.Encoder
	closeIn func() error
	results chan workerResult
}

func (c *coordinator) spawnWorker() (*workerProc, error) {
	exe := c.cfg.Exe
	if exe == "" {
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, fmt.Errorf("fabric: worker executable: %w", err)
		}
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		EnvWorker+"=1",
		EnvScale+"="+c.cfg.ScaleName,
		EnvStore+"="+c.cfg.StoreDir,
		EnvRevision+"="+c.cfg.Revision,
		EnvSpans+"="+c.cfg.SpanDir,
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("fabric: spawn worker: %w", err)
	}
	w := &workerProc{
		cmd: cmd, stdin: json.NewEncoder(stdin), closeIn: stdin.Close,
		results: make(chan workerResult),
	}
	go func() {
		dec := json.NewDecoder(stdout)
		for {
			var res workerResult
			if err := dec.Decode(&res); err != nil {
				close(w.results)
				cmd.Wait()
				return
			}
			w.results <- res
		}
	}()
	return w, nil
}

func (w *workerProc) kill() {
	if w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
	w.closeIn()
	// Drain until the reader goroutine observes EOF and reaps the child.
	for range w.results {
	}
}

// runLocalSlot supervises one worker slot: spawn, feed cells, journal
// results; on death or lease expiry kill, requeue and respawn with
// exponential backoff, giving up after MaxRestarts consecutive failures.
func (c *coordinator) runLocalSlot(slot int) SlotRecord {
	name := fmt.Sprintf("w%d", slot)
	rec := SlotRecord{Slot: name}
	restarts := 0
	for {
		w, err := c.spawnWorker()
		if err == nil {
			if c.cfg.HookOnSpawn != nil {
				c.cfg.HookOnSpawn(slot, w.cmd.Process.Pid)
			}
			before := rec.Cells
			drained := c.serveWorker(name, w, &rec)
			w.kill()
			if drained {
				return rec
			}
			// An incarnation that completed cells before dying resets the
			// budget: give-up is for workers that crash without making
			// progress, not for occasional faults across a long sweep.
			if rec.Cells > before {
				restarts = 0
			}
		} else {
			c.log.Warn("fabric: worker spawn failed", "slot", name, "err", err)
		}
		restarts++
		rec.Restarts++
		if restarts > c.cfg.MaxRestarts {
			c.log.Error("fabric: slot giving up", "slot", name, "restarts", rec.Restarts)
			rec.GaveUp = true
			return rec
		}
		time.Sleep(c.cfg.Backoff << (restarts - 1))
	}
}

// serveWorker feeds cells to one worker incarnation until the queue
// drains (returns true) or the worker must be replaced (returns false:
// died, protocol confusion, or lease expiry — the cell is requeued).
func (c *coordinator) serveWorker(name string, w *workerProc, rec *SlotRecord) bool {
	var lastStore *store.Stats
	defer func() { c.addStoreStats(lastStore) }()
	lease := time.NewTimer(c.cfg.Lease)
	defer lease.Stop()
	for {
		i, ok := c.sched.next()
		if !ok {
			return true
		}
		start := time.Now()
		phase := c.leasePhase(i)
		spanStart := c.spans.Now()
		if err := w.stdin.Encode(c.plan[i]); err != nil {
			c.noteRequeue(i, name, "worker write failed")
			return false
		}
		if !lease.Stop() {
			select {
			case <-lease.C:
			default:
			}
		}
		lease.Reset(c.cfg.Lease)
		select {
		case res, alive := <-w.results:
			if !alive {
				c.noteRequeue(i, name, "worker died")
				return false
			}
			if res.Cell != c.plan[i].ID() {
				c.noteRequeue(i, name, "protocol mismatch: got "+res.Cell)
				return false
			}
			lastStore = res.Store
			if res.Err != "" {
				c.spans.EmitPhase(c.plan[i].ID(), "attempt", name, -1, spanStart, res.Err)
				c.sched.fail(i, res.Err)
				continue
			}
			c.spans.EmitPhase(c.plan[i].ID(), phase, name, -1, spanStart, "")
			if err := c.recordDone(i, *res.Out, name, time.Since(start).Seconds()); err != nil {
				c.log.Error("fabric: journal append failed", "err", err)
				c.sched.fail(i, "journal: "+err.Error())
				continue
			}
			rec.Cells++
		case <-lease.C:
			c.noteRequeue(i, name, "lease expired")
			return false
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
