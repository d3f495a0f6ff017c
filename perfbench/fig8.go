package main

import (
	"context"
	"fmt"
	"time"

	"ccr/internal/core"
	"ccr/internal/experiments"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/workloads"
)

// fig8 regenerates Figures 8a and 8b at small scale through one
// experiments.Suite, as ccrpaper -fig 8a / 8b does. Set-up compiles every
// benchmark into the suite; the measured phase is the two sweeps.

func fig8Suite(e *env) *experiments.Suite {
	cfg := experiments.DefaultConfig()
	cfg.Scale = workloads.Small
	cfg.Jobs = e.jobs
	s := experiments.NewSuite(cfg)
	s.Benches = pick(s.Benches, e.benches)
	return s
}

func compileAll(s *experiments.Suite) error {
	return s.Map(len(s.Benches),
		func(i int) string { return "compile/" + s.Benches[i].Name },
		func(i int) error { _, err := s.Compiled(s.Benches[i]); return err })
}

func fig8Iterate(e *env, c *checks) (iteration, error) {
	var it iteration
	pt := startTimer()
	s := fig8Suite(e)
	if err := compileAll(s); err != nil {
		return it, err
	}
	it.setup = pt.measured()
	if e.setupOnly {
		return it, nil
	}
	m := runner.NewManifest("perfbench fig8", s.Jobs())
	s.AttachManifest(m)
	a, err := experiments.Figure8a(s)
	if err != nil {
		return it, err
	}
	b, err := experiments.Figure8b(s)
	if err != nil {
		return it, err
	}
	it.work = time.Since(pt.phase)
	c.check(s.FailedCells() == 0, "fig8: %d failed cells", s.FailedCells())
	checkFigure(c, "fig8a", a.Rows, a.Speedup, a.Avg, refs.Fig8.Fig8a)
	checkFigure(c, "fig8b", b.Rows, b.Speedup, b.Avg, refs.Fig8.Fig8b)
	pt.done(&it)
	for _, cell := range m.Cells {
		it.ops = append(it.ops, cell.Seconds*1e3)
	}
	e.lastSuite = s
	return it, nil
}

// fig8Points are the Figure 8a then 8b sweep points, as the figure
// drivers build them.
func fig8Points() (a, b []experiments.SweepPoint) {
	base := core.DefaultOptions().CRB
	for _, ci := range []int{4, 8, 16} {
		cc := base
		cc.Entries, cc.Instances = 128, ci
		a = append(a, experiments.SweepPoint{Label: fmt.Sprintf("128E,%dCI", ci), Reuse: reuse.CCR(cc)})
	}
	for _, n := range []int{32, 64, 128} {
		cc := base
		cc.Entries, cc.Instances = n, 8
		b = append(b, experiments.SweepPoint{Label: fmt.Sprintf("%dE,8CI", n), Reuse: reuse.CCR(cc)})
	}
	return a, b
}

// distinctPoints dedups sweep points by scheme key.
func distinctPoints(lists ...[]experiments.SweepPoint) []experiments.SweepPoint {
	seen := map[string]bool{}
	var out []experiments.SweepPoint
	for _, l := range lists {
		for _, p := range l {
			if !seen[p.Reuse.Key()] {
				seen[p.Reuse.Key()] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// fig8Once proves transparency for every timed cell of the last
// iteration's suite: each CCR run's digest against its base run's.
func fig8Once(e *env, c *checks) error {
	s := e.lastSuite
	a, b := fig8Points()
	pts := distinctPoints(a, b)
	np := len(pts)
	errs := s.MapErrs(len(s.Benches)*np,
		func(i int) string { return "digest/" + s.Benches[i/np].Name + "/" + pts[i%np].Label },
		func(i int) error {
			bench, pt := s.Benches[i/np], pts[i%np]
			base, err := s.BaseDigest(bench, bench.Train)
			if err != nil {
				return err
			}
			d, err := s.ReuseDigest(bench, bench.Train, pt.Reuse)
			if err != nil {
				return err
			}
			return oracle.Compare(base, d)
		})
	for i, err := range errs {
		c.check(err == nil, "fig8 transparency %s/%s: %v", s.Benches[i/np].Name, pts[i%np].Label, err)
	}
	return nil
}

func fig8Traced(e *env, c *checks, out map[string]float64) ([]span, time.Duration, error) {
	start := time.Now()
	tr := newTracer()
	ts := newTSuite(tr, nil)
	benches := pick(workloads.All(workloads.Small), e.benches)
	pool := runner.Pool{Jobs: e.jobs}

	setup := tr.begin(0, "phase", "setup", "")
	if err := runCells(&pool, len(benches), func(i int) error {
		return tr.do(setup, "runner.cell", "compile", benches[i].Name, func(id int) error {
			_, err := ts.compile(id, benches[i])
			return err
		})
	}); err != nil {
		return nil, 0, err
	}
	tr.end(setup)

	fig := tr.begin(0, "phase", "fig", "")
	a, b := fig8Points()
	for fi, pts := range [][]experiments.SweepPoint{a, b} {
		np := len(pts)
		rows := map[string][]float64{}
		names := make([]string, len(benches))
		for i, bench := range benches {
			names[i] = bench.Name
			rows[bench.Name] = make([]float64, np)
		}
		err := runCells(&pool, len(benches)*np, func(i int) error {
			bench, pt := benches[i/np], pts[i%np]
			return tr.do(fig, "runner.cell", pt.Label, bench.Name, func(id int) error {
				sp, err := ts.speedup(id, bench, bench.Train, pt.Reuse)
				rows[bench.Name][i%np] = sp
				return err
			})
		})
		c.check(err == nil, "fig8 traced sweep: %v", err)
		want := []figRef{refs.Fig8.Fig8a, refs.Fig8.Fig8b}[fi]
		checkFigure(c, fmt.Sprintf("fig8 traced %d", fi), names, rows, nil, want)
	}
	tr.end(fig)
	wall := time.Since(start)

	batch := tr.begin(0, "phase", "batch", "")
	for _, bench := range benches {
		for _, p := range append([]experiments.SweepPoint{{Label: "off", Reuse: reuse.Config{Scheme: reuse.Off}}}, distinctPoints(a, b)...) {
			if err := ts.batch(batch, bench, bench.Train, p.Reuse); err != nil {
				return nil, 0, err
			}
		}
	}
	tr.end(batch)

	spans, err := tr.snapshot()
	if err != nil {
		return nil, 0, err
	}
	layerMetrics(layerSelf(spans), ts.n, out)
	out["runner.util"] = poolUtil(spans, fig, e.jobs)
	out["runner.cache_hit_ratio"] = ts.cacheHitRatio()
	return spans, wall, nil
}

// runCells runs fn(i) for i in [0, n) on the pool and joins the errors.
func runCells(pool *runner.Pool, n int, fn func(i int) error) error {
	cells := make([]runner.Cell, n)
	for i := range cells {
		i := i
		cells[i] = runner.Cell{ID: fmt.Sprint(i), Do: func(context.Context) error { return fn(i) }}
	}
	return runner.Errs(pool.Run(context.Background(), cells))
}

// poolUtil is the busy fraction of the pool during a phase span: the
// summed durations of its runner.cell children over workers × phase time.
func poolUtil(spans []span, phase, jobs int) float64 {
	var busy, dur int64
	for _, s := range spans {
		switch {
		case s.ID == phase:
			dur = s.End - s.Start
		case s.Parent == phase && s.Layer == "runner.cell":
			busy += s.End - s.Start
		}
	}
	return ratio(float64(busy), float64(dur)*float64(jobs))
}

// pick keeps the benchmarks a smoke run selects (names nil = all).
func pick(all []*workloads.Benchmark, names []string) []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, b := range all {
		if wanted(names, b.Name) {
			out = append(out, b)
		}
	}
	return out
}

func wanted(names []string, name string) bool {
	if names == nil {
		return true
	}
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
