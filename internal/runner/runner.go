// Package runner is the parallel experiment-execution engine behind the
// figure drivers: a worker pool that fans the independent simulation cells
// of a sweep (benchmark × dataset × CRB configuration) out across a fixed
// number of workers, a thread-safe single-flight cache for the pipeline
// artifacts those cells share (compilations, baseline simulations, limit
// studies), and structured run manifests recording per-cell wall time,
// cache effectiveness and worker utilization.
//
// Results are always returned in input order, so a parallel sweep renders
// byte-identically to a serial one; a failing cell reports its error
// without aborting the rest of the sweep.
package runner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCellPanic wraps a panic recovered inside a cell, classifiable with
// errors.Is on the cell's error.
var ErrCellPanic = errors.New("cell panicked")

// Cell is one independently executable unit of a sweep: typically a single
// (benchmark, dataset, CRB configuration) simulation. Do must be safe to
// call concurrently with every other cell of the same run; cross-cell
// sharing belongs in a Cache.
type Cell struct {
	ID string
	Do func(ctx context.Context) error
}

// CellResult records one cell's outcome.
type CellResult struct {
	ID     string
	Index  int // position in the input slice
	Worker int
	Wall   time.Duration
	Err    error // nil on success
	// Stack is the captured goroutine stack of a recovered panic; empty
	// when the cell returned normally.
	Stack string
}

// Pool fans cells out across a fixed number of workers.
type Pool struct {
	// Jobs is the worker count; <= 0 means one worker per GOMAXPROCS.
	Jobs int
	// Manifest, when non-nil, accumulates cell records and worker busy
	// time from every Run.
	Manifest *Manifest
	// Heartbeat, when positive, emits a progress snapshot at this interval
	// while a Run is in flight (cells done/total, failures, elapsed, ETA,
	// worker utilization) so long sweeps are not silent.
	Heartbeat time.Duration
	// Sink receives the heartbeat snapshots; when nil, they go to
	// slog.Default at Info level (SlogSink). The daemon's streaming
	// progress channel and the CLI heartbeat are both just sinks.
	Sink ProgressSink
}

// ProgressSink consumes the heartbeat snapshots of an in-flight Run. A
// sink must be safe for use from the pool's heartbeat goroutine; one Run
// calls it from a single goroutine at a time.
type ProgressSink interface {
	Progress(Progress)
}

// ProgressFunc adapts a plain function to a ProgressSink.
type ProgressFunc func(Progress)

// Progress implements ProgressSink.
func (f ProgressFunc) Progress(p Progress) { f(p) }

// SlogSink logs each snapshot as a structured line on Logger (or
// slog.Default when nil) — the default heartbeat destination of every CLI.
type SlogSink struct {
	Logger *slog.Logger
}

// Progress implements ProgressSink.
func (s SlogSink) Progress(p Progress) {
	l := s.Logger
	if l == nil {
		l = slog.Default()
	}
	l.Info("runner heartbeat", "progress", p)
}

// Progress is one heartbeat snapshot of an in-flight Run.
type Progress struct {
	Done, Total, Failed int
	Elapsed             time.Duration
	// ETA estimates the remaining wall time from mean cell duration so
	// far; zero until the first cell completes.
	ETA time.Duration
	// Utilization is the mean fraction of worker time spent inside cells.
	Utilization float64
}

// LogValue renders the snapshot as structured attributes.
func (p Progress) LogValue() slog.Value {
	return slog.GroupValue(
		slog.Int("done", p.Done),
		slog.Int("total", p.Total),
		slog.Int("failed", p.Failed),
		slog.Duration("elapsed", p.Elapsed),
		slog.Duration("eta", p.ETA),
		slog.Float64("utilization", p.Utilization),
	)
}

func (p *Pool) jobs() int {
	if p == nil || p.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.Jobs
}

// Run executes every cell and returns the results in input order,
// independent of completion order. Each cell runs exactly once: cells
// are deterministic, so a second attempt could not change the outcome. A
// failing or panicking cell only marks its own result; the remaining
// cells still run. Cancelling ctx stops workers from starting new cells —
// cells not yet started report ctx.Err().
func (p *Pool) Run(ctx context.Context, cells []Cell) []CellResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]CellResult, len(cells))
	jobs := p.jobs()
	if jobs > len(cells) {
		jobs = len(cells)
	}
	if jobs < 1 {
		jobs = 1
	}
	busy := make([]time.Duration, jobs)
	ran := make([]int, jobs)
	var done, failed, busyNS atomic.Int64
	if p != nil && p.Heartbeat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go p.beat(stop, time.Now(), len(cells), jobs, &done, &failed, &busyNS)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				r := &results[i]
				r.ID, r.Index, r.Worker = cells[i].ID, i, w
				if err := ctx.Err(); err != nil {
					r.Err = fmt.Errorf("runner: cell %s: %w", cells[i].ID, err)
					done.Add(1)
					failed.Add(1)
					continue
				}
				start := time.Now()
				r.Err, r.Stack = runRecovered(ctx, cells[i])
				r.Wall = time.Since(start)
				if r.Err != nil {
					r.Err = fmt.Errorf("runner: cell %s: %w", cells[i].ID, r.Err)
					failed.Add(1)
				}
				busy[w] += r.Wall
				ran[w]++
				done.Add(1)
				busyNS.Add(int64(r.Wall))
			}
		}(w)
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if p != nil && p.Manifest != nil {
		p.Manifest.record(jobs, results, busy, ran)
	}
	return results
}

// beat emits heartbeat snapshots until stop closes, then one final
// snapshot so short runs still record their completion line.
func (p *Pool) beat(stop <-chan struct{}, start time.Time, total, jobs int,
	done, failed, busyNS *atomic.Int64) {
	t := time.NewTicker(p.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			p.emitProgress(p.snapshot(start, total, jobs, done, failed, busyNS))
		}
	}
}

func (p *Pool) snapshot(start time.Time, total, jobs int,
	done, failed, busyNS *atomic.Int64) Progress {
	return computeProgress(int(done.Load()), total, int(failed.Load()),
		time.Since(start), time.Duration(busyNS.Load()), jobs)
}

// computeProgress derives one heartbeat snapshot from the raw counters —
// the pure core of snapshot, separated so the degenerate first-tick cases
// are testable without a live pool. Before the first cell completes, or
// before the clock has visibly advanced, there is no completion rate to
// extrapolate: a naive elapsed/done quotient would divide by zero (or
// promise a 0s ETA for an arbitrarily long run), so both ETA and
// utilization stay zero — "unknown" — until the inputs can support them.
func computeProgress(done, total, failed int, elapsed, busy time.Duration, jobs int) Progress {
	pr := Progress{Done: done, Total: total, Failed: failed, Elapsed: elapsed}
	if done > 0 && done < total && elapsed > 0 {
		// Mean completed-cell wall time × remaining cells: elapsed time
		// already amortizes the worker parallelism, so no jobs division.
		pr.ETA = time.Duration(float64(elapsed) / float64(done) * float64(total-done))
	}
	if elapsed > 0 && jobs > 0 {
		pr.Utilization = float64(busy) / (float64(elapsed) * float64(jobs))
	}
	return pr
}

func (p *Pool) emitProgress(pr Progress) {
	if p.Sink != nil {
		p.Sink.Progress(pr)
		return
	}
	SlogSink{}.Progress(pr)
}

// runRecovered executes the cell body once, converting a panic into an
// ErrCellPanic error with the captured goroutine stack.
func runRecovered(ctx context.Context, c Cell) (err error, stack string) {
	defer func() {
		if r := recover(); r != nil {
			stack = string(debug.Stack())
			err = fmt.Errorf("%w: %v", ErrCellPanic, r)
		}
	}()
	return c.Do(ctx), ""
}

// Errs joins the cell errors in input order; nil when every cell succeeded.
func Errs(results []CellResult) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errors.Join(errs...)
}
