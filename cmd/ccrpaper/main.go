// Command ccrpaper regenerates every figure and table of the paper's
// evaluation on the synthetic benchmark suite and prints them as text
// tables (the data behind EXPERIMENTS.md).
//
// The simulation cells of each figure fan out across -jobs workers
// (default: GOMAXPROCS) through internal/runner, the heuristic ablation's
// included; shared artifacts — compilations, baseline simulations, limit
// studies — are computed exactly once per benchmark across the whole run.
// -manifest writes a JSON record of the run: per-cell wall times, cache
// hit/miss counters and worker utilization.
//
// A failing simulation cell no longer aborts the run: its figure renders a
// FAILED(<reason>) entry and every other cell completes normally. -strict
// turns any such failure into exit status 1. -verify additionally runs the
// §3.1 transparency sweep (internal/oracle) over every benchmark, dataset
// and CRB configuration, exiting 1 on any architectural divergence.
// Each cell runs exactly once: cells are deterministic, so a rerun could
// not change a FAILED row.
//
// -heartbeat makes the worker pool emit a structured progress log line
// (cells done/total, failures, elapsed, ETA, worker utilization) to
// stderr at the given interval so long sweeps are not silent; -telemetry
// attaches a cause-attributed CRB metrics sink to every CCR simulation
// and embeds the per-cell summaries in the -manifest output.
//
// -store roots a persistent content-addressed artifact store: compile,
// simulation, limit and digest results are reused across process runs
// (and shared with ccrd daemons pointed at the same directory).
//
// -fabric DIR switches to the crash-safe sweep fabric instead of figure
// rendering: the verification sweep's cells are computed -jobs at a time
// and journaled under DIR, and a rerun after any interruption (including
// SIGKILL) resumes from the journal, skipping completed cells.
// digests.json is byte-identical at any -jobs and however the sweep is
// interrupted.
// -fabric-spans additionally records per-process span logs under
// DIR/spans; merge them with `ccrviz timeline -dir DIR/spans -journal
// DIR/journal.jsonl` into a Perfetto-loadable trace of the whole sweep,
// kill/resume seams included.
//
// Usage:
//
//	ccrpaper [-scale tiny|small|medium|large]
//	         [-fig 4|8a|8b|9|10|11|scalars|compare|ablations|decant|all]
//	         [-jobs N] [-manifest run.json] [-telemetry] [-heartbeat 30s]
//	         [-verify] [-strict]
//	         [-store DIR]
//	         [-fabric DIR] [-fabric-benches x,y] [-fabric-spans]
//	         [-version]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"ccr/internal/buildinfo"
	"ccr/internal/experiments"
	"ccr/internal/fabric"
	"ccr/internal/runner"
	"ccr/internal/store"
	"ccr/internal/workloads"
)

func main() {
	scale := flag.String("scale", "medium", "workload scale: tiny, small, medium, large")
	var knownFigs []string
	for _, sec := range experiments.Sections {
		knownFigs = append(knownFigs, sec.Name)
	}
	fig := flag.String("fig", "all", "which figure to regenerate: "+strings.Join(knownFigs, ", ")+", all")
	jobs := flag.Int("jobs", 0, "parallel simulation workers, and the fabric's cells in flight (0 = GOMAXPROCS)")
	manifest := flag.String("manifest", "", "write a JSON run manifest to this file")
	verify := flag.Bool("verify", false, "run the transparency-verification sweep (exit 1 on divergence)")
	strict := flag.Bool("strict", false, "exit 1 if any simulation cell failed")
	heartbeat := flag.Duration("heartbeat", 30*time.Second, "progress-log interval for long sweeps (0 = silent)")
	telem := flag.Bool("telemetry", false, "embed per-cell CRB telemetry summaries in the manifest")
	storeDir := flag.String("store", "", "root a persistent artifact store here (reused across runs)")
	fabricDir := flag.String("fabric", "", "run the resumable sweep fabric with this state directory instead of figures")
	fabricBenches := flag.String("fabric-benches", "", "fabric: restrict the sweep to these comma-separated benchmarks")
	fabricDieAfter := flag.Int("fabric-die-after", 0, "fabric: SIGKILL self after N journaled cells (crash-drill knob)")
	fabricSpans := flag.Bool("fabric-spans", false, "fabric: record span logs under DIR/spans for 'ccrviz timeline'")
	showVersion := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String())
		return
	}
	if *fabricDir != "" {
		os.Exit(runFabric(fabricConfig{
			dir: *fabricDir, scale: *scale, storeDir: *storeDir,
			jobs: *jobs, benches: *fabricBenches,
			dieAfter: *fabricDieAfter, spans: *fabricSpans,
		}))
	}
	cfg := experiments.DefaultConfig()
	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Scale = sc
	if *fig != "all" && !slices.Contains(knownFigs, *fig) {
		fmt.Fprintf(os.Stderr, "unknown -fig %q; known figures: %s, all\n",
			*fig, strings.Join(knownFigs, ", "))
		os.Exit(2)
	}
	cfg.Jobs = *jobs
	cfg.Heartbeat = *heartbeat
	cfg.Telemetry = *telem
	if *storeDir != "" {
		st, err := store.Open(store.Options{Dir: *storeDir, Revision: store.DefaultRevision()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccrpaper:", err)
			os.Exit(2)
		}
		cfg.Store = st
	}

	suite := experiments.NewSuite(cfg)
	m := runner.NewManifest(
		fmt.Sprintf("ccrpaper -scale %s -fig %s -jobs %d", *scale, *fig, suite.Jobs()),
		suite.Jobs())
	suite.AttachManifest(m)

	exitCode := 0
	for _, sec := range experiments.Sections {
		if *fig == "all" || *fig == sec.Name {
			if err := sec.Print(suite, os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *verify {
		v, err := experiments.Verify(suite)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(v.Render())
		if v.Failed() > 0 {
			fmt.Fprintf(os.Stderr, "ccrpaper: transparency verification failed at %d points\n", v.Failed())
			exitCode = 1
		}
	}

	suite.FlushCacheStats(m)
	m.Finish()
	if *manifest != "" {
		if err := m.WriteFile(*manifest); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "ccrpaper: %.2fs wall, %d jobs, %d cells; compile %d misses / %d hits; %d profiling runs\n",
		m.WallSeconds, m.Jobs, len(m.Cells),
		m.Caches["compile"].Misses, m.Caches["compile"].Hits, m.Caches["profile"].Misses)
	if n := suite.FailedCells(); n > 0 {
		fmt.Fprintf(os.Stderr, "ccrpaper: %d cells failed (see FAILED entries above)\n", n)
		if *strict {
			exitCode = 1
		}
	}
	os.Exit(exitCode)
}

// fabricConfig carries the -fabric* flag values into runFabric.
type fabricConfig struct {
	dir, scale, storeDir, benches string
	jobs, dieAfter                int
	spans                         bool
}

// runFabric runs (or resumes) a resumable sweep and returns the exit code.
func runFabric(fc fabricConfig) int {
	cfg := fabric.Config{
		Dir:       fc.dir,
		ScaleName: fc.scale,
		Jobs:      fc.jobs,
		StoreDir:  fc.storeDir,
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if fc.spans {
		cfg.SpanDir = filepath.Join(fc.dir, "spans")
	}
	if fc.benches != "" {
		cfg.Benches = strings.Split(fc.benches, ",")
	}
	if fc.dieAfter > 0 {
		cfg.HookAfterCell = func(done int) {
			if done >= fc.dieAfter {
				fmt.Fprintf(os.Stderr, "ccrpaper: crash drill, SIGKILL self after %d cells\n", done)
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	res, err := fabric.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrpaper:", err)
		return 1
	}
	m := res.Manifest
	fmt.Fprintf(os.Stderr,
		"ccrpaper: fabric %s: %d cells (%d resumed, %d computed) in %.2fs\n",
		m.Scale, m.Cells, m.Resumed, m.Computed, m.WallSeconds)
	if m.Store != nil {
		fmt.Fprintf(os.Stderr, "ccrpaper: fabric store: %d puts, %d hits, %d misses (hit rate %.2f)\n",
			m.Store.Puts, m.Store.Hits, m.Store.Misses, m.StoreHitRate)
	}
	return 0
}
