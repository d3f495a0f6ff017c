package experiments

import (
	"fmt"

	"ccr/internal/core"
	"ccr/internal/reuse"
	"ccr/internal/stats"
	"ccr/internal/workloads"
)

// AblationResult is a generic labelled sweep of average speedups.
type AblationResult struct {
	Title  string
	Labels []string
	SpeedupTable
}

// Render formats the ablation as a table.
func (r *AblationResult) Render() string { return r.render(r.Title, r.Labels) }

// AblationAssoc sweeps CRB set associativity at the small 32-entry
// capacity, where programs with large variant-kernel families (gcc, li)
// overflow a direct-mapped buffer and suffer region-ID conflict evictions —
// the §3.1 design-enhancement discussion. At 128 entries every formed
// region of this suite maps to a distinct entry and associativity is moot.
func AblationAssoc(s *Suite) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: CRB set associativity (32 entries, 8 CIs)"}
	var points []SweepPoint
	for _, a := range []int{1, 2, 4} {
		c := s.cfg.Opts.CRB
		c.Entries, c.Instances, c.Assoc = 32, 8, a
		points = append(points, SweepPoint{Label: fmt.Sprintf("%d-way", a), Reuse: reuse.CCR(c)})
	}
	return runAblation(s, res, points)
}

// AblationNoMem sweeps the fraction of computation entries without
// memory-valid hardware — the §6 "nonuniform capacities" future work.
// Figure 9(b) motivates it: only a minority of dynamic reuse needs memory
// validation, so shaving that hardware from part of the buffer should cost
// little — until memory-dependent regions start failing to record.
func AblationNoMem(s *Suite) (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: entries without memory-valid hardware (128 entries, 8 CIs)"}
	var points []SweepPoint
	for _, frac := range []float64{0, 0.5, 0.75, 1} {
		c := s.cfg.Opts.CRB
		c.Entries, c.Instances, c.NoMemEntriesFrac = 128, 8, frac
		points = append(points, SweepPoint{Label: fmt.Sprintf("%.0f%%", 100*frac), Reuse: reuse.CCR(c)})
	}
	return runAblation(s, res, points)
}

// runAblation runs the (benchmark × configuration) cells of an ablation
// on the suite's grid, like the Figure 8 sweeps. Failed cells degrade to
// FAILED entries rather than aborting the ablation.
func runAblation(s *Suite, res *AblationResult, points []SweepPoint) (*AblationResult, error) {
	for _, p := range points {
		res.Labels = append(res.Labels, p.Label)
	}
	res.SpeedupTable, _ = speedupGrid(s, "ablation", points, trainSpeedup(s))
	return res, nil
}

// twoColumnAblation fans one cell per benchmark across the pool, each cell
// computing both columns of its row; a failing benchmark degrades to a
// FAILED row instead of aborting the ablation.
func twoColumnAblation(s *Suite, res *AblationResult, tag string, cell func(b *workloads.Benchmark) ([2]float64, error)) (*AblationResult, error) {
	rows := make([][]float64, len(s.Benches))
	for i := range rows {
		rows[i] = make([]float64, 2)
	}
	errs := s.MapErrs(len(s.Benches),
		func(i int) string { return tag + "/" + s.Benches[i].Name },
		func(i int) error {
			row, err := cell(s.Benches[i])
			copy(rows[i], row[:])
			return err
		})
	res.SpeedupTable = tabulate(s.Benches, 2, rows, func(bi, _ int) error { return errs[bi] })
	return res, nil
}

// HeuristicPoint is one region-formation setting of the heuristic ablation.
// A nil Mutate is the suite's own options.
type HeuristicPoint struct {
	Label   string
	Mutate  func(*core.Options)
	Regions int
	Avg     float64
}

// AblationHeuristics re-compiles the suite under varied formation
// thresholds — the §4.4 sensitivity the paper describes empirically
// ("lower values tend to admit too many instructions ... that are not
// successfully reused"). Its (point, benchmark) cells run on the suite's
// grid. The paper point is the suite's own compilation and default CCR
// run; every other point compiles the prepared program under its
// thresholds and is timed against the suite's base run, which region
// options do not change. A failing cell fails the ablation: the error is
// the first failing cell's in (point, benchmark) order.
func AblationHeuristics(s *Suite) ([]HeuristicPoint, error) {
	points := []HeuristicPoint{
		{Label: "paper (R=0.65)"},
		{Label: "strict (R=0.90)", Mutate: func(o *core.Options) {
			o.Region.R = 0.90
			o.Region.MinLiveInInvariance = 0.70
		}},
		{Label: "lax (R=0.30)", Mutate: func(o *core.Options) {
			o.Region.R = 0.30
			o.Region.MinLiveInInvariance = 0.15
			o.Region.BlockReusableFrac = 0.25
		}},
		{Label: "greedy (R=0)", Mutate: func(o *core.Options) {
			o.Region.R = 0
			o.Region.Rm = 0
			o.Region.MinLiveInInvariance = 0
			o.Region.BlockReusableFrac = 0
			o.Region.MinStaticSize = 1
		}},
	}
	np := len(points)
	regions := make([]int, len(s.Benches)*np)
	sps := make([]float64, len(s.Benches)*np)
	errs := s.Grid(np,
		func(bi, pi int) string { return "heuristic/" + s.Benches[bi].Name + "/" + points[pi].Label },
		func(bi, pi int) (err error) {
			regions[bi*np+pi], sps[bi*np+pi], err = heuristicCell(s, s.Benches[bi], points[pi])
			return err
		})
	for pi := range points {
		var avg []float64
		for bi := range s.Benches {
			if err := errs[bi*np+pi]; err != nil {
				return nil, err
			}
			points[pi].Regions += regions[bi*np+pi]
			avg = append(avg, sps[bi*np+pi])
		}
		points[pi].Avg = stats.Mean(avg)
	}
	return points, nil
}

// heuristicCell compiles b under p's thresholds and returns the program's
// region count and CCR speedup.
func heuristicCell(s *Suite, b *workloads.Benchmark, p HeuristicPoint) (int, float64, error) {
	if p.Mutate == nil {
		cr, err := s.Compiled(b)
		if err != nil {
			return 0, 0, err
		}
		sp, err := s.Speedup(b, b.Train, s.cfg.Opts.CRB)
		return len(cr.Prog.Regions), sp, err
	}
	opts := s.cfg.Opts
	p.Mutate(&opts)
	cr, err := s.CompiledUnder(b, opts.Region)
	if err != nil {
		return 0, 0, fmt.Errorf("heuristic ablation %s/%s: %w", p.Label, b.Name, err)
	}
	base, err := s.BaseSim(b, b.Train)
	if err != nil {
		return 0, 0, err
	}
	ccr, err := core.Simulate(cr.Prog, &opts.CRB, opts.Uarch, b.Train, opts.Limit)
	if err != nil {
		return 0, 0, err
	}
	if base.Result != ccr.Result {
		return 0, 0, fmt.Errorf("heuristic ablation %s/%s: architectural mismatch", p.Label, b.Name)
	}
	return len(cr.Prog.Regions), core.Speedup(base, ccr), nil
}

// RenderHeuristics formats the heuristic ablation.
func RenderHeuristics(points []HeuristicPoint) string {
	t := stats.Table{Header: []string{"formation thresholds", "regions", "avg speedup"}}
	for _, p := range points {
		t.Add(p.Label, fmt.Sprintf("%d", p.Regions), fmt.Sprintf("%.3f", p.Avg))
	}
	return "Ablation: region-formation heuristic thresholds (128 entries, 8 CIs)\n" + t.String()
}

// AblationSpeculation compares the base reuse-validation timing against
// the §6 value-speculation variant that hides validation latency behind
// speculative commit of the recorded live-out values.
func AblationSpeculation(s *Suite) (*AblationResult, error) {
	res := &AblationResult{
		Title:  "Ablation: speculative reuse validation (128 entries, 8 CIs)",
		Labels: []string{"validate", "speculate"},
	}
	cc := s.cfg.Opts.CRB
	specU := s.cfg.Opts.Uarch
	specU.SpeculativeValidation = true
	return twoColumnAblation(s, res, "spec", func(b *workloads.Benchmark) ([2]float64, error) {
		baseRun, err := s.BaseSim(b, b.Train)
		if err != nil {
			return [2]float64{}, err
		}
		normal, err := s.CCRSim(b, b.Train, cc)
		if err != nil {
			return [2]float64{}, err
		}
		cr, err := s.Compiled(b)
		if err != nil {
			return [2]float64{}, err
		}
		spec, err := core.Simulate(cr.Prog, &cc, specU, b.Train, s.cfg.Opts.Limit)
		if err != nil {
			return [2]float64{}, err
		}
		if spec.Result != baseRun.Result {
			return [2]float64{}, fmt.Errorf("speculation ablation %s: architectural mismatch", b.Name)
		}
		return [2]float64{core.Speedup(baseRun, normal), core.Speedup(baseRun, spec)}, nil
	})
}

// AblationFuncLevel compares the paper's evaluated configuration against
// the §6 function-level extension: calls to pure functions with recurring
// arguments become reuse regions of their own, eliminating the call,
// callee body and return in one hit. The extension's compilation is the
// suite's function-level variant, which Verify's function-level check
// shares; its timed runs bypass the shared caches.
func AblationFuncLevel(s *Suite) (*AblationResult, error) {
	res := &AblationResult{
		Title:  "Ablation: function-level CCR (128 entries, 8 CIs)",
		Labels: []string{"regions", "+funclevel"},
	}
	flOpts := s.cfg.Opts
	flOpts.Region.FunctionLevel = true
	return twoColumnAblation(s, res, "funclevel", func(b *workloads.Benchmark) ([2]float64, error) {
		baseRun, err := s.BaseSim(b, b.Train)
		if err != nil {
			return [2]float64{}, err
		}
		normal, err := s.Speedup(b, b.Train, s.cfg.Opts.CRB)
		if err != nil {
			return [2]float64{}, err
		}
		cr, err := s.CompiledUnder(b, flOpts.Region)
		if err != nil {
			return [2]float64{}, fmt.Errorf("funclevel ablation %s: %w", b.Name, err)
		}
		fl, err := core.Simulate(cr.Prog, &flOpts.CRB, flOpts.Uarch, b.Train, flOpts.Limit)
		if err != nil {
			return [2]float64{}, err
		}
		if fl.Result != baseRun.Result {
			return [2]float64{}, fmt.Errorf("funclevel ablation %s: architectural mismatch", b.Name)
		}
		return [2]float64{normal, core.Speedup(baseRun, fl)}, nil
	})
}

// AblationOutOfOrder asks the question §3.3 raises: how much of the CCR
// benefit survives on a dynamically scheduled machine that can already
// hide latency? Reuse still saves fetched/executed instructions, but no
// longer shortcuts dependences the scheduler could overlap.
func AblationOutOfOrder(s *Suite) (*AblationResult, error) {
	res := &AblationResult{
		Title:  "Ablation: in-order vs out-of-order machine (128 entries, 8 CIs)",
		Labels: []string{"inorder", "ooo"},
	}
	oooCfg := s.cfg.Opts.Uarch
	oooCfg.OutOfOrder = true
	oooCfg.ROBSize = 64
	return twoColumnAblation(s, res, "ooo", func(b *workloads.Benchmark) ([2]float64, error) {
		inorderSp, err := s.Speedup(b, b.Train, s.cfg.Opts.CRB)
		if err != nil {
			return [2]float64{}, err
		}
		cr, err := s.Compiled(b)
		if err != nil {
			return [2]float64{}, err
		}
		oooBase, err := core.Simulate(b.Prog, nil, oooCfg, b.Train, s.cfg.Opts.Limit)
		if err != nil {
			return [2]float64{}, err
		}
		oooCCR, err := core.Simulate(cr.Prog, &s.cfg.Opts.CRB, oooCfg, b.Train, s.cfg.Opts.Limit)
		if err != nil {
			return [2]float64{}, err
		}
		if oooCCR.Result != oooBase.Result {
			return [2]float64{}, fmt.Errorf("ooo ablation %s: architectural mismatch", b.Name)
		}
		return [2]float64{inorderSp, core.Speedup(oooBase, oooCCR)}, nil
	})
}
