package main

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ccr/internal/core"
	"ccr/internal/experiments"
	"ccr/internal/fabric"
	"ccr/internal/oracle"
	"ccr/internal/runner"
	"ccr/internal/store"
	"ccr/internal/workloads"
)

// verify runs the fabric transparency sweep at tiny scale (the canonical
// plan, every reuse scheme) twice: cold against a store that holds only the
// set-up's compilations, then warm, in fresh journal directories, against
// the store the cold sweep filled. Each sweep is one inline fabric.Run per
// benchmark, one per CPU at a time, heaviest benchmark first. A single
// inline coordinator leaves the other CPUs idle; on a 2-vCPU x86_64 VM its
// work_s spread twice as far across runs (IQR/median 0.12 vs 0.08 in six
// interleaved runs of each) and took 1.6x as long.

func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func openStore(dir string) (*store.Store, error) {
	return store.Open(store.Options{Dir: dir, Revision: store.DefaultRevision(), Log: quietLog()})
}

func verifyIterate(e *env, c *checks) (iteration, error) {
	var it iteration
	dir, err := os.MkdirTemp(e.tmp, "verify-")
	if err != nil {
		return it, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")

	pt := startTimer()
	st, err := openStore(storeDir)
	if err != nil {
		return it, err
	}
	cfg := experiments.DefaultConfig()
	cfg.Scale, cfg.Jobs, cfg.Store = workloads.Tiny, e.jobs, st
	s := experiments.NewSuite(cfg)
	s.Benches = pick(s.Benches, e.benches)
	if err := compileAll(s); err != nil {
		return it, err
	}
	it.setup = pt.measured()
	if e.setupOnly {
		return it, nil
	}

	seconds := map[string]float64{}
	for i, phase := range []string{"cold", "warm"} {
		if i > 0 {
			pt.pause()
		}
		t := time.Now()
		rows, errs, err := fabricSweep(e, filepath.Join(dir, phase), storeDir)
		if err != nil {
			return it, err
		}
		it.work += time.Since(t)
		for _, err := range errs {
			c.check(err == nil, "verify %s: %v", phase, err)
		}
		checkDigests(c, "verify "+phase, rows)
		for _, b := range heaviestFirst(e) {
			done, _, err := fabric.LoadJournal(filepath.Join(dir, phase, b, "journal.jsonl"))
			if err != nil {
				return it, err
			}
			for cell, rec := range done {
				seconds[cell] += rec.Seconds
			}
		}
	}
	pt.done(&it)
	for _, s := range seconds {
		it.ops = append(it.ops, s*1e3)
	}
	return it, nil
}

// heaviestFirst orders the run's benchmarks by the dynamic instruction
// count of their reference base runs, largest first, so the pool's last
// benchmarks are short ones.
func heaviestFirst(e *env) []string {
	names := benchNames(e)
	weight := func(b string) int64 { return refs.base[b+"/train"].DynInstrs + refs.base[b+"/ref"].DynInstrs }
	sort.SliceStable(names, func(i, j int) bool { return weight(names[i]) > weight(names[j]) })
	return names
}

// fabricSweep runs one inline fabric.Run per benchmark under dir/<bench>,
// e.jobs at a time, all on the store at storeDir. It returns the digest
// rows of every benchmark and each run's cell-failure error; err is set
// only when a run could not produce a result at all.
func fabricSweep(e *env, dir, storeDir string) (rows []fabric.DigestRow, errs []error, err error) {
	order := heaviestFirst(e)
	results := make([]*fabric.Result, len(order))
	errs = make([]error, len(order))
	pool := runner.Pool{Jobs: e.jobs}
	err = runCells(&pool, len(order), func(i int) error {
		results[i], errs[i] = fabric.Run(fabric.Config{Dir: filepath.Join(dir, order[i]), ScaleName: "tiny",
			Benches: order[i : i+1], StoreDir: storeDir, Log: quietLog()})
		if results[i] == nil {
			return errs[i]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, r := range results {
		rows = append(rows, r.Digests...)
	}
	return rows, errs, nil
}

// verifyOnce cross-checks the reference base digests against the legacy
// interpreter, so the references do not rest on the engine under test.
func verifyOnce(e *env, c *checks) error {
	limit := core.DefaultOptions().Limit
	for _, b := range pick(workloads.All(workloads.Tiny), e.benches) {
		core.Prepare(b.Prog)
		for _, ds := range []struct {
			name string
			args []int64
		}{{"train", b.Train}, {"ref", b.Ref}} {
			want, ok := refs.base[b.Name+"/"+ds.name]
			d, err := core.DigestRunEngine(b.Prog, nil, ds.args, limit, true)
			c.check(ok && err == nil && d.Equal(want), "interpreter digest %s/%s: %v", b.Name, ds.name, err)
		}
	}
	return nil
}

func verifyTraced(e *env, c *checks, out map[string]float64) ([]span, time.Duration, error) {
	dir, err := os.MkdirTemp(e.tmp, "verify-traced-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	st, err := openStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, 0, err
	}
	tr := newTracer()
	benches := pick(workloads.All(workloads.Tiny), e.benches)
	pool := runner.Pool{Jobs: e.jobs}

	setupTS := newTSuite(tr, st)
	setup := tr.begin(0, "phase", "setup", "")
	if err := runCells(&pool, len(benches), func(i int) error {
		return tr.do(setup, "runner.cell", "compile", benches[i].Name, func(id int) error {
			_, err := setupTS.compile(id, benches[i])
			return err
		})
	}); err != nil {
		return nil, 0, err
	}
	tr.end(setup)

	cfg := experiments.DefaultConfig()
	cfg.Scale = workloads.Tiny
	plan := map[string][]fabric.CellSpec{}
	for _, spec := range fabric.Plan(experiments.NewSuite(cfg)) {
		plan[spec.Bench] = append(plan[spec.Bench], spec)
	}
	order := heaviestFirst(e)
	var (
		mu    sync.Mutex
		total = setupTS.n
		cells int
	)
	for _, phase := range []string{"cold", "warm"} {
		runtime.GC()
		t := time.Now()
		ph := tr.begin(0, "phase", phase, "")
		err := runCells(&pool, len(order), func(i int) error {
			// Like each fabric.Run, each benchmark's replay loads its own
			// program and caches.
			ts := newTSuite(tr, st)
			var bc checks
			err := tracedSweep(&bc, ts, ph, plan[order[i]], workloads.Load(order[i], workloads.Tiny),
				filepath.Join(dir, phase, order[i]), phase)
			mu.Lock()
			defer mu.Unlock()
			c.add(bc)
			total.add(ts.n)
			cells += len(plan[order[i]])
			return err
		})
		tr.end(ph)
		if err != nil {
			return nil, 0, err
		}
		out["fabric."+phase+"_s"] = time.Since(t).Seconds()
	}
	wall := time.Since(start)

	spans, err := tr.snapshot()
	if err != nil {
		return nil, 0, err
	}
	self := layerSelf(spans)
	layerMetrics(self, total, out)
	out["fabric.journal_s"] = self["fabric.journal"]
	out["fabric.cells"] = float64(cells)
	return spans, wall, nil
}

// tracedSweep replays one benchmark's inline fabric sweep under the phase
// span ph: per cell the base digest, the reuse digest, the base and reuse
// timing runs, and the journal append.
func tracedSweep(c *checks, ts *tsuite, ph int, plan []fabric.CellSpec, b *workloads.Benchmark, dir, phase string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j, err := fabric.OpenJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	tr := ts.tr
	for _, spec := range plan {
		args := b.Train
		if spec.Dataset == "ref" {
			args = b.Ref
		}
		t := time.Now()
		var o fabric.CellOut
		err := tr.do(ph, "fabric.cell", "cell", spec.ID(), func(id int) error {
			base, err := ts.baseDigest(id, b, args)
			if err != nil {
				return err
			}
			got, err := ts.reuseDigest(id, b, args, spec.Reuse)
			if err != nil {
				return err
			}
			sp, err := ts.speedup(id, b, args, spec.Reuse)
			if err != nil {
				return err
			}
			o = fabric.CellOut{Base: base, CCR: got, Speedup: sp, Verified: oracle.Compare(base, got) == nil}
			return tr.do(id, "fabric.journal", "Append", spec.ID(), func(int) error {
				_, err := j.Append(fabric.Record{Cell: spec.ID(), Out: o, Slot: "inline", Seconds: time.Since(t).Seconds()})
				return err
			})
		})
		if err != nil {
			return err
		}
		want, ok := refs.verify[spec.ID()]
		c.check(ok && want.Out == o, "verify traced %s cell %s differs from reference", phase, spec.ID())
	}
	return nil
}
