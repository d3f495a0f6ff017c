// Command ccrsim runs one benchmark through the full CCR pipeline and
// prints a side-by-side cycle-level comparison of the base and CCR
// machines, with the detailed stall and reuse breakdown of the timing
// model.
//
// -verify additionally folds an oracle digest (internal/oracle) into the
// base and scheme runs themselves and fails with exit status 1 if any
// architectural observable diverged — the paper's §3.1 transparency
// contract for this benchmark, input and CRB geometry.
//
// -spans DIR streams the CCR run's reuse-relevant events (region entries,
// reuse hits with eliminated-instruction counts, invalidations with
// fan-out) into an obsv span log under DIR, one span per event stamped
// with the timing model's cycle count. `ccrviz timeline -dir DIR` renders
// it as Chrome trace-event JSON — load that in chrome://tracing or
// https://ui.perfetto.dev. -metrics writes the cause-attributed
// per-region CRB counters (misses split cold/conflict/input/mem-invalid,
// evictions split capacity vs invalidation, per-object invalidation
// fan-out) as JSON.
//
// -scheme selects the reuse scheme under test: "ccr" (the default,
// compiler-directed regions + CRB), "dtm" (dynamic trace memoization on
// the unmodified base program — no compiler support), "both" (CRB and DTM
// on the transformed program), or "off" (no reuse hardware at all). The
// -tentries/-tinstances/-tassoc/-minrun flags size the DTM geometry the
// same way -entries/-cis/-assoc size the CRB.
//
// Usage:
//
//	ccrsim -bench m88ksim [-scale medium] [-scheme ccr] [-entries 128]
//	       [-cis 8] [-assoc 1] [-nomem 0] [-tentries 256] [-tinstances 4]
//	       [-tassoc 2] [-minrun 3] [-ref] [-list] [-jobs N] [-manifest run.json]
//	       [-spans DIR] [-metrics out.metrics.json]
//	       [-verify] [-version]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"ccr/internal/buildinfo"
	"ccr/internal/core"
	"ccr/internal/ir"
	"ccr/internal/obsv"
	"ccr/internal/opt"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/telemetry"
	"ccr/internal/workloads"
)

func main() {
	bench := flag.String("bench", "m88ksim", "benchmark name (see -list)")
	scale := flag.String("scale", "small", "workload scale: tiny, small, medium, large")
	schemeFlag := flag.String("scheme", "ccr", "reuse scheme: ccr, dtm, both, off")
	entries := flag.Int("entries", 128, "CRB computation entries")
	cis := flag.Int("cis", 8, "computation instances per entry")
	assoc := flag.Int("assoc", 1, "CRB set associativity (1 = paper)")
	nomem := flag.Float64("nomem", 0, "fraction of entries without memory-valid hardware")
	tentries := flag.Int("tentries", 256, "DTM trace entries (schemes dtm/both)")
	tinstances := flag.Int("tinstances", 4, "trace instances per DTM entry")
	tassoc := flag.Int("tassoc", 2, "DTM set associativity")
	minrun := flag.Int("minrun", 3, "minimum run length the DTM will memoize")
	useRef := flag.Bool("ref", false, "simulate the reference input instead of training")
	optimize := flag.Bool("O", false, "run the classic optimizer on the base program first")
	list := flag.Bool("list", false, "list benchmarks and exit")
	jobs := flag.Int("jobs", 0, "workers for the base/CCR simulation pair (0 = GOMAXPROCS)")
	manifest := flag.String("manifest", "", "write a JSON run manifest to this file")
	verify := flag.Bool("verify", false, "differentially check the §3.1 transparency contract")
	spansDir := flag.String("spans", "", "stream the CCR run's reuse events as a span log into this directory")
	metricsPath := flag.String("metrics", "", "write cause-attributed per-region CRB metrics JSON to this file")
	showVersion := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String())
		return
	}
	if *list {
		for _, n := range workloads.Names() {
			b := workloads.Load(n, workloads.Tiny)
			fmt.Printf("%-10s %-14s %s\n", b.Name, b.Paper, b.About)
		}
		return
	}

	sc, err := workloads.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	b, err := workloads.Lookup(*bench, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *optimize {
		st := opt.Optimize(b.Prog)
		fmt.Printf("optimizer: folded %d, propagated %d, eliminated %d\n",
			st.Folded, st.Propagated, st.Eliminated)
	}
	scheme, err := reuse.ParseScheme(*schemeFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := core.DefaultOptions()
	opts.CRB.Entries = *entries
	opts.CRB.Instances = *cis
	opts.CRB.Assoc = *assoc
	opts.CRB.NoMemEntriesFrac = *nomem
	opts.DTM.Entries = *tentries
	opts.DTM.Instances = *tinstances
	opts.DTM.Assoc = *tassoc
	opts.DTM.MinRun = *minrun

	var rc reuse.Config
	switch scheme {
	case reuse.Off:
		rc = reuse.Config{Scheme: reuse.Off}
	case reuse.CCRScheme:
		rc = reuse.CCR(opts.CRB)
	case reuse.DTMScheme:
		rc = reuse.DTMOnly(opts.DTM)
	case reuse.BothSchemes:
		rc = reuse.Both(opts.CRB, opts.DTM)
	}

	// The CCR schemes run the compiler-transformed program; the pure-DTM
	// and off schemes run the unmodified base program (trace memoization
	// needs no compiler support — that is its point).
	var cr *core.CompileResult
	prog := b.Prog
	if rc.Scheme.UsesCCR() {
		cr, err = core.Compile(b.Prog, b.Train, opts)
		if err != nil {
			log.Fatal(err)
		}
		prog = cr.Prog
	}
	args := b.Train
	which := "training"
	if *useRef {
		args = b.Ref
		which = "reference"
	}
	// The base and CCR simulations are independent; run them as two cells
	// of a runner pool (Compile above already annotated b.Prog, so both
	// only read their programs).
	pool := runner.Pool{
		Jobs:     *jobs,
		Manifest: runner.NewManifest(fmt.Sprintf("ccrsim -bench %s -scale %s", b.Name, *scale), *jobs),
	}
	var tel *core.Telemetry
	if *spansDir != "" || *metricsPath != "" {
		tel = &core.Telemetry{}
		if *metricsPath != "" {
			tel.Metrics = telemetry.NewMetrics()
		}
		if *spansDir != "" {
			tel.Spans, err = obsv.OpenSpanLog(*spansDir, fmt.Sprintf("ccrsim-%d", os.Getpid()))
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	ccrCellID := string(scheme) + "/" + b.Name + "/" + rc.Key()
	var base, ccr *core.SimResult
	var baseDigest, ccrDigest oracle.Digest
	// Under -verify each timed run also folds its digest, so checking
	// transparency costs no extra execution.
	simulate := func(p *ir.Program, rc reuse.Config, tel *core.Telemetry, d *oracle.Digest) (r *core.SimResult, err error) {
		if !*verify {
			return core.SimulateReuse(p, rc, opts.Uarch, args, 0, tel)
		}
		r, *d, err = core.SimulateReuseDigest(p, rc, opts.Uarch, args, 0, tel)
		return r, err
	}
	cells := []runner.Cell{
		{ID: "base/" + b.Name, Do: func(context.Context) error {
			var err error
			base, err = simulate(b.Prog, reuse.Config{Scheme: reuse.Off}, nil, &baseDigest)
			return err
		}},
		{ID: ccrCellID, Do: func(context.Context) error {
			var err error
			ccr, err = simulate(prog, rc, tel, &ccrDigest)
			return err
		}},
	}
	results := pool.Run(context.Background(), cells)
	if err := runner.Errs(results); err != nil {
		log.Fatal(err)
	}
	if tel != nil && tel.Metrics != nil {
		pool.Manifest.SetTelemetry(ccrCellID, tel.Metrics.Summary())
	}
	if *manifest != "" {
		pool.Manifest.Finish()
		if err := pool.Manifest.WriteFile(*manifest); err != nil {
			log.Fatal(err)
		}
	}
	if tel != nil {
		if err := tel.Spans.Close(); err != nil {
			log.Fatal(err)
		}
		if *metricsPath != "" {
			data, err := tel.Metrics.JSON()
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*metricsPath, append(data, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
	if base.Result != ccr.Result {
		log.Fatalf("architectural mismatch: base %d, ccr %d", base.Result, ccr.Result)
	}

	fmt.Printf("benchmark %s (%s), %s input, scheme %s (%s)\n",
		b.Name, b.Paper, which, scheme, rc.Key())
	if cr != nil {
		fmt.Printf("regions formed: %d (%d static instructions inside regions)\n",
			len(cr.Prog.Regions), regionInstrs(cr))
	}
	fmt.Println()

	row := func(name string, r *core.SimResult) {
		fmt.Printf("%-6s %12d cycles  %12d instrs  IPC %.2f  I$%6d  D$%6d  mpred%7d\n",
			name, r.Cycles, r.Uarch.Instrs, r.Uarch.IPC(),
			r.Uarch.ICacheMisses, r.Uarch.DCacheMisses, r.Uarch.Mispredicts)
	}
	row("base", base)
	row(string(scheme), ccr)
	if rc.Scheme.UsesCCR() {
		fmt.Printf("\nreuse: %d hits, %d misses, %d aborts, %d invalidations\n",
			ccr.Emu.ReuseHits, ccr.Emu.ReuseMisses, ccr.Emu.MemoAborts, ccr.Emu.Invalidations)
	}
	reused := ccr.Emu.ReusedInstrs + ccr.Emu.DTMReusedInstrs
	fmt.Printf("eliminated %d dynamic instructions (%.1f%% of base execution)\n",
		reused, 100*float64(reused)/float64(base.Emu.DynInstrs))
	if ccr.CRB != nil {
		fmt.Printf("CRB: %d records, %d evictions, %d record-rejects, %d instance invalidates\n",
			ccr.CRB.Records, ccr.CRB.Evictions, ccr.CRB.RecordFails, ccr.CRB.Invalidates)
	}
	if ccr.DTM != nil {
		fmt.Printf("DTM: %d trace hits, %d records, %d evictions, %d store invalidates\n",
			ccr.DTM.Hits, ccr.DTM.Records, ccr.DTM.Evictions, ccr.DTM.Invalidates)
	}
	fmt.Printf("\nspeedup: %.3f×\n", core.Speedup(base, ccr))

	if *verify {
		if err := oracle.Compare(baseDigest, ccrDigest); err != nil {
			fmt.Fprintf(os.Stderr, "ccrsim: transparency verification FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("transparency verified: %d stores, %d rets, %d mem words identical to base\n",
			baseDigest.StoreCount, baseDigest.RetCount, baseDigest.MemWords)
	}
}

func regionInstrs(cr *core.CompileResult) int {
	n := 0
	for _, rg := range cr.Prog.Regions {
		n += rg.StaticSize
	}
	return n
}
