// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a time budget, checks every output it produces, and
// prints one JSON result line:
//
//	perfbench --workload fig8|verify|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload repeats untraced iterations (set-up plus the
// measured phase) and reports the end-to-end metrics as medians over them.
// With --trace 1 it runs one untraced iteration and then replays the same
// cells with a span around every call into a layer, and reports per-layer
// self times and counts from the spans (written as JSONL under
// .bench_build/). Run it through run.py, which builds it from source.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccr/internal/experiments"
)

// env is what a workload needs from the command line.
type env struct {
	seed    int64
	budget  time.Duration
	jobs    int
	tmp     string   // scratch directory, removed at exit
	benches []string // nil = every benchmark; smoke runs pass a subset
	// requests is the serve workload's request count per iteration.
	requests int
	log      io.Writer
	// iter numbers the run's iterations; serve draws a stream per iteration.
	iter int
	// setupOnly makes an iteration stop after set-up (extra set-up samples).
	setupOnly bool
	// lastSuite is the fig8 suite of the latest iteration, for fig8Once.
	lastSuite *experiments.Suite
}

// iteration is one untraced pass of a workload.
type iteration struct {
	setup, work, wall time.Duration
	ops               []float64 // per-operation latency, ms
	allocBytes        uint64
}

// checks counts output checks; a failed check is a failed operation.
type checks struct {
	attempted, failed int
	first             string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf(format, args...)
		}
	}
}

func (c *checks) add(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.first == "" {
		c.first = o.first
	}
}

// workload is one named traffic shape.
type workload struct {
	name string
	// iterate runs one untraced set-up + measured phase.
	iterate func(e *env, c *checks) (iteration, error)
	// once runs the run's one-off output checks (outside any timing).
	once func(e *env, c *checks) error
	// traced replays one iteration's cells with spans and fills layer
	// metrics; it returns the replay's spans and wall time.
	traced func(e *env, c *checks, out map[string]float64) ([]span, time.Duration, error)
}

var workloadList = []workload{
	{name: "fig8", iterate: fig8Iterate, once: fig8Once, traced: fig8Traced},
	{name: "verify", iterate: verifyIterate, once: verifyOnce, traced: verifyTraced},
	{name: "serve", iterate: serveIterate, traced: serveTraced},
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fig8, verify or serve")
	seed := flag.Int64("seed", 1, "seed for the generated inputs (serve's request stream)")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	refsDir := flag.String("write-refs", "", "regenerate the reference outputs into this directory and exit")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *refsDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, refsDir string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	slog.SetDefault(quietLog())
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, budget: time.Duration(seconds) * time.Second,
		jobs: runtime.GOMAXPROCS(0), tmp: tmp, requests: 1200, log: os.Stderr}
	if refsDir != "" {
		return writeRefs(e, refsDir)
	}

	var w *workload
	for i := range workloadList {
		if workloadList[i].name == name {
			w = &workloadList[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res *result
	if trace == 1 {
		res, err = tracedRun(w, e, filepath.Join(".bench_build", "spans-"+name+".jsonl"))
	} else {
		res, err = untracedRun(w, e)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// untracedRun repeats iterations while the next one is expected to fit
// the budget (at least two), takes at least five set-up samples, and
// reports medians.
func untracedRun(w *workload, e *env) (*result, error) {
	var c checks
	var its []iteration
	start := time.Now()
	for len(its) < 2 || time.Since(start)+its[len(its)-1].wall <= e.budget {
		e.iter = len(its)
		it, err := w.iterate(e, &c)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	if w.once != nil {
		if err := w.once(e, &c); err != nil {
			return nil, err
		}
	}
	var setups, walls, works, p50s, tails, allocs []float64
	var tailPct float64
	var tailBeyond int
	for _, it := range its {
		setups = append(setups, it.setup.Seconds())
		walls = append(walls, it.wall.Seconds())
		works = append(works, it.work.Seconds())
		p50s = append(p50s, median(it.ops))
		var tv float64
		tailPct, tv, tailBeyond = tail(it.ops)
		tails = append(tails, tv)
		allocs = append(allocs, float64(it.allocBytes)/1e6)
	}
	e.setupOnly = true
	for len(setups) < 5 {
		it, err := w.iterate(e, &c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, it.setup.Seconds())
	}
	fmt.Fprintf(e.log, "perfbench: %s: %d iterations, %d ops each; req_tail_ms is p%s with %d samples beyond it per iteration\n",
		w.name, len(its), len(its[0].ops), strconv.FormatFloat(tailPct, 'f', -1, 64), tailBeyond)
	fmt.Fprintf(e.log, "perfbench: %s: work_s per iteration %.3f, setup_s samples %.3f\n", w.name, works, setups)
	vals := map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"work_s":      median(works),
		"req_p50_ms":  median(p50s),
		"req_tail_ms": median(tails),
		"alloc_mb":    median(allocs),
		"peak_rss_mb": peakRSSMB(),
	}
	return finish(e, c, fill(endToEnd, vals)), nil
}

// tracedRun measures an untraced iteration after a warm-up one (the first
// iteration of a process pays for heap growth), then the traced replay.
func tracedRun(w *workload, e *env, spansPath string) (*result, error) {
	var c checks
	var it iteration
	for i := 0; i < 2; i++ {
		var err error
		if it, err = w.iterate(e, &c); err != nil {
			return nil, err
		}
	}
	vals := map[string]float64{}
	spans, wall, err := w.traced(e, &c, vals)
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_ratio"] = wall.Seconds() / it.wall.Seconds()
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "perfbench: %s: %d spans written to %s\n", w.name, len(spans), spansPath)
	return finish(e, c, fill(perLayer, vals)), nil
}

func finish(e *env, c checks, m map[string]metricOut) *result {
	if c.failed > 0 {
		fmt.Fprintf(e.log, "perfbench: %d/%d checks failed; first: %s\n", c.failed, c.attempted, c.first)
	}
	return &result{Correct: c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// peakRSSMB reads the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// phaseTimer measures a workload iteration: set-up from start, then the
// measured phase after a forced GC whose pause is kept out of the wall.
type phaseTimer struct {
	start, phase time.Time
	gc           time.Duration
	alloc0       uint64
}

func startTimer() *phaseTimer {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &phaseTimer{start: time.Now(), alloc0: ms.TotalAlloc}
}

// measured ends set-up and starts the measured phase.
func (p *phaseTimer) measured() time.Duration {
	setup := time.Since(p.start)
	t := time.Now()
	runtime.GC()
	p.phase = time.Now()
	p.gc = p.phase.Sub(t)
	return setup
}

// pause forces a GC between two measured phases, kept out of the wall.
func (p *phaseTimer) pause() {
	t := time.Now()
	runtime.GC()
	p.gc += time.Since(t)
}

func (p *phaseTimer) done(it *iteration) {
	it.wall = time.Since(p.start) - p.gc
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	it.allocBytes = ms.TotalAlloc - p.alloc0
}
