package experiments

import (
	"fmt"
	"sort"

	"ccr/internal/ir"
	"ccr/internal/reuse"
	"ccr/internal/stats"
)

// Fig4Row is one benchmark's bar pair in Figure 4.
type Fig4Row struct {
	Bench     string
	BlockPct  float64 // % of dynamic execution reusable at block level
	RegionPct float64 // % reusable at region level
}

// Fig4Result is the dynamic reuse-potential study.
type Fig4Result struct {
	Rows                []Fig4Row
	AvgBlock, AvgRegion float64
	// Failed maps a benchmark whose cell failed to the failure reason; its
	// row renders as FAILED and is excluded from the averages.
	Failed map[string]string
}

// Figure4 reproduces the §2.3 limit study: block- vs region-level dynamic
// reuse potential with eight records per code segment. The per-benchmark
// limit studies are independent, so they fan out across the suite's pool.
// A failing benchmark degrades to a FAILED row instead of aborting.
func Figure4(s *Suite) (*Fig4Result, error) {
	rows := make([]Fig4Row, len(s.Benches))
	errs := s.MapErrs(len(s.Benches),
		func(i int) string { return "fig4/" + s.Benches[i].Name },
		func(i int) error {
			b := s.Benches[i]
			r, err := s.Limit(b)
			if err != nil {
				return err
			}
			rows[i] = Fig4Row{Bench: b.Name, BlockPct: r.BlockPct(), RegionPct: r.RegionPct()}
			return nil
		})
	res := &Fig4Result{Rows: rows, Failed: map[string]string{}}
	var blocks, regions []float64
	for i, row := range rows {
		if errs[i] != nil {
			res.Rows[i].Bench = s.Benches[i].Name
			res.Failed[s.Benches[i].Name] = shortReason(errs[i])
			continue
		}
		blocks = append(blocks, row.BlockPct)
		regions = append(regions, row.RegionPct)
	}
	res.AvgBlock = stats.Mean(blocks)
	res.AvgRegion = stats.Mean(regions)
	return res, nil
}

// Render formats the figure as a text table.
func (r *Fig4Result) Render() string {
	t := stats.Table{Header: []string{"benchmark", "block", "region"}}
	for _, row := range r.Rows {
		if reason, ok := r.Failed[row.Bench]; ok {
			t.Add(row.Bench, failCell(reason), failCell(reason))
			continue
		}
		t.Add(row.Bench, fmt.Sprintf("%.1f%%", row.BlockPct), fmt.Sprintf("%.1f%%", row.RegionPct))
	}
	t.Add("average", fmt.Sprintf("%.1f%%", r.AvgBlock), fmt.Sprintf("%.1f%%", r.AvgRegion))
	return "Figure 4: dynamic reuse potential (8-record histories)\n" + t.String()
}

// SweepPoint names one reuse-scheme configuration of a sweep: a label for
// table headers and manifest IDs plus the full scheme selection (ccr, dtm,
// both or off, with each backend's geometry). The classic Figure 8 sweeps
// build pure-CCR points via reuse.CCR.
type SweepPoint struct {
	Label string
	Reuse reuse.Config
}

// Fig8Result holds a speedup sweep: one column per configuration.
type Fig8Result struct {
	Points []SweepPoint
	SpeedupTable
}

// sweep runs the (benchmark × configuration) product of a Figure 8-style
// study on the suite's grid. Each cell writes into its own slot, so the
// rendered table is byte-identical to a serial run. Failed cells degrade
// to FAILED entries rather than aborting the sweep.
func sweep(s *Suite, points []SweepPoint) (*Fig8Result, error) {
	t, _ := speedupGrid(s, "sweep", points, trainSpeedup(s))
	return &Fig8Result{Points: points, SpeedupTable: t}, nil
}

// Figure8a sweeps the number of computation instances per entry
// (128 entries × {4, 8, 16} CIs).
func Figure8a(s *Suite) (*Fig8Result, error) {
	base := s.cfg.Opts.CRB
	points := []SweepPoint{}
	for _, ci := range []int{4, 8, 16} {
		c := base
		c.Entries, c.Instances = 128, ci
		points = append(points, SweepPoint{Label: fmt.Sprintf("128E,%dCI", ci), Reuse: reuse.CCR(c)})
	}
	return sweep(s, points)
}

// Figure8b sweeps the number of computation entries
// ({32, 64, 128} entries × 8 CIs).
func Figure8b(s *Suite) (*Fig8Result, error) {
	base := s.cfg.Opts.CRB
	points := []SweepPoint{}
	for _, e := range []int{32, 64, 128} {
		c := base
		c.Entries, c.Instances = e, 8
		points = append(points, SweepPoint{Label: fmt.Sprintf("%dE,8CI", e), Reuse: reuse.CCR(c)})
	}
	return sweep(s, points)
}

// Render formats the sweep as a text table.
func (r *Fig8Result) Render(title string) string {
	labels := make([]string, len(r.Points))
	for i, p := range r.Points {
		labels[i] = p.Label
	}
	return r.render(title, labels)
}

// PaperGroups is the Figure 9 bucket list, in the paper's legend order.
var PaperGroups = []string{"SL_4", "SL_6", "SL_8", "MD_3_1", "MD_6_1", "MD_2_2", "MD_2_3"}

// GroupOf buckets a region the way Figure 9 does: SL_n includes stateless
// computations with up to n register inputs (excluding smaller listed
// groups); MD_n_m analogously for memory-dependent computations with m
// distinguishable objects.
func GroupOf(r *ir.Region) string {
	n := len(r.Inputs)
	if r.Class == ir.Stateless {
		switch {
		case n <= 4:
			return "SL_4"
		case n <= 6:
			return "SL_6"
		default:
			return "SL_8"
		}
	}
	switch len(r.MemObjects) {
	case 1:
		if n <= 3 {
			return "MD_3_1"
		}
		return "MD_6_1"
	case 2:
		return "MD_2_2"
	default:
		return "MD_2_3"
	}
}

// Fig9Result holds the static (a) and dynamic (b) computation-group
// distributions per benchmark, each row summing to ≤ 1.
type Fig9Result struct {
	Rows    []string
	Static  map[string]map[string]float64
	Dynamic map[string]map[string]float64
	// AvgStatic/AvgDynamic are the per-group averages across benchmarks.
	AvgStatic, AvgDynamic map[string]float64
	// AcyclicReplaced is the mean dynamic instructions an acyclic region
	// execution replaces (the paper reports ≈ 10).
	AcyclicReplaced float64
	// Failed maps a benchmark whose cell failed to the failure reason.
	Failed map[string]string
}

// fig9Cell is one benchmark's contribution, computed inside a pool cell.
type fig9Cell struct {
	static, dynamic map[string]float64
	acySum, acyN    float64
}

// Figure9 computes the computation-group distributions at the default CRB
// configuration, one parallel cell per benchmark; a failing benchmark
// degrades to a FAILED row.
func Figure9(s *Suite) (*Fig9Result, error) {
	cc := s.cfg.Opts.CRB
	cells := make([]fig9Cell, len(s.Benches))
	errs := s.MapErrs(len(s.Benches),
		func(i int) string { return "fig9/" + s.Benches[i].Name },
		func(i int) error {
			b := s.Benches[i]
			cr, err := s.Compiled(b)
			if err != nil {
				return err
			}
			run, err := s.CCRSim(b, b.Train, cc)
			if err != nil {
				return err
			}
			st := map[string]float64{}
			dy := map[string]float64{}
			var totStatic, totDyn float64
			cell := &cells[i]
			for _, rg := range cr.Prog.Regions {
				g := GroupOf(rg)
				st[g]++
				totStatic++
				if rs := run.Emu.Regions[rg.ID]; rs != nil {
					dy[g] += float64(rs.ReusedInstrs)
					totDyn += float64(rs.ReusedInstrs)
					if rg.Kind == ir.Acyclic && rs.Hits > 0 {
						cell.acySum += float64(rs.ReusedInstrs) / float64(rs.Hits)
						cell.acyN++
					}
				}
			}
			for g := range st {
				st[g] /= totStatic
			}
			if totDyn > 0 {
				for g := range dy {
					dy[g] /= totDyn
				}
			}
			cell.static, cell.dynamic = st, dy
			return nil
		})
	res := &Fig9Result{
		Static:     map[string]map[string]float64{},
		Dynamic:    map[string]map[string]float64{},
		AvgStatic:  map[string]float64{},
		AvgDynamic: map[string]float64{},
		Failed:     map[string]string{},
	}
	var acySum, acyN float64
	var ok []string
	for i, b := range s.Benches {
		res.Rows = append(res.Rows, b.Name)
		if errs[i] != nil {
			res.Failed[b.Name] = shortReason(errs[i])
			continue
		}
		ok = append(ok, b.Name)
		res.Static[b.Name] = cells[i].static
		res.Dynamic[b.Name] = cells[i].dynamic
		acySum += cells[i].acySum
		acyN += cells[i].acyN
	}
	for _, g := range PaperGroups {
		var sSum, dSum float64
		for _, b := range ok {
			sSum += res.Static[b][g]
			dSum += res.Dynamic[b][g]
		}
		if len(ok) > 0 {
			res.AvgStatic[g] = sSum / float64(len(ok))
			res.AvgDynamic[g] = dSum / float64(len(ok))
		}
	}
	if acyN > 0 {
		res.AcyclicReplaced = acySum / acyN
	}
	return res, nil
}

// Render formats both distributions.
func (r *Fig9Result) Render() string {
	render := func(title string, m map[string]map[string]float64, avg map[string]float64) string {
		head := append([]string{"benchmark"}, PaperGroups...)
		t := stats.Table{Header: head}
		for _, b := range r.Rows {
			cells := []string{b}
			if reason, ok := r.Failed[b]; ok {
				for range PaperGroups {
					cells = append(cells, failCell(reason))
				}
				t.Add(cells...)
				continue
			}
			for _, g := range PaperGroups {
				cells = append(cells, fmt.Sprintf("%.0f%%", 100*m[b][g]))
			}
			t.Add(cells...)
		}
		cells := []string{"average"}
		for _, g := range PaperGroups {
			cells = append(cells, fmt.Sprintf("%.0f%%", 100*avg[g]))
		}
		t.Add(cells...)
		return title + "\n" + t.String()
	}
	out := render("Figure 9(a): static computation-group distribution", r.Static, r.AvgStatic)
	out += "\n" + render("Figure 9(b): dynamic computation-group distribution", r.Dynamic, r.AvgDynamic)
	out += fmt.Sprintf("\nacyclic regions replace %.1f dynamic instructions per reuse on average\n", r.AcyclicReplaced)
	return out
}

// Fig10Result holds, per benchmark, the cumulative share of dynamic reuse
// contributed by the top 10/20/30/40 % of static computations.
type Fig10Result struct {
	Rows []string
	Top  map[string][4]float64
	Avg  [4]float64
	// Failed maps a benchmark whose cell failed to the failure reason.
	Failed map[string]string
}

// Figure10 computes the reuse-concentration distribution, one parallel
// cell per benchmark; a failing benchmark degrades to a FAILED row.
func Figure10(s *Suite) (*Fig10Result, error) {
	cc := s.cfg.Opts.CRB
	tops := make([][4]float64, len(s.Benches))
	errs := s.MapErrs(len(s.Benches),
		func(i int) string { return "fig10/" + s.Benches[i].Name },
		func(i int) error {
			b := s.Benches[i]
			cr, err := s.Compiled(b)
			if err != nil {
				return err
			}
			run, err := s.CCRSim(b, b.Train, cc)
			if err != nil {
				return err
			}
			contrib := make([]float64, 0, len(cr.Prog.Regions))
			var total float64
			for _, rg := range cr.Prog.Regions {
				v := 0.0
				if rs := run.Emu.Regions[rg.ID]; rs != nil {
					v = float64(rs.ReusedInstrs)
				}
				contrib = append(contrib, v)
				total += v
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(contrib)))
			if total > 0 && len(contrib) > 0 {
				for fi, frac := range []float64{0.1, 0.2, 0.3, 0.4} {
					n := int(frac*float64(len(contrib)) + 0.9999)
					if n < 1 {
						n = 1
					}
					if n > len(contrib) {
						n = len(contrib)
					}
					var sum float64
					for _, v := range contrib[:n] {
						sum += v
					}
					tops[i][fi] = sum / total
				}
			}
			return nil
		})
	res := &Fig10Result{Top: map[string][4]float64{}, Failed: map[string]string{}}
	var sums [4]float64
	var nOK int
	for bi, b := range s.Benches {
		res.Rows = append(res.Rows, b.Name)
		if errs[bi] != nil {
			res.Failed[b.Name] = shortReason(errs[bi])
			continue
		}
		nOK++
		res.Top[b.Name] = tops[bi]
		for i := range sums {
			sums[i] += tops[bi][i]
		}
	}
	if nOK > 0 {
		for i := range sums {
			res.Avg[i] = sums[i] / float64(nOK)
		}
	}
	return res, nil
}

// Render formats the concentration table.
func (r *Fig10Result) Render() string {
	t := stats.Table{Header: []string{"benchmark", "TOP 10%", "TOP 20%", "TOP 30%", "TOP 40%"}}
	for _, b := range r.Rows {
		if reason, ok := r.Failed[b]; ok {
			fc := failCell(reason)
			t.Add(b, fc, fc, fc, fc)
			continue
		}
		v := r.Top[b]
		t.Add(b, stats.Pct(v[0]), stats.Pct(v[1]), stats.Pct(v[2]), stats.Pct(v[3]))
	}
	t.Add("average", stats.Pct(r.Avg[0]), stats.Pct(r.Avg[1]), stats.Pct(r.Avg[2]), stats.Pct(r.Avg[3]))
	return "Figure 10: dynamic reuse by top static computations\n" + t.String()
}

// Fig11Row compares training- and reference-input speedups. TrainErr and
// RefErr are set (and the corresponding metrics zero) when that input's
// cell failed.
type Fig11Row struct {
	Bench          string
	TrainSpeedup   float64
	RefSpeedup     float64
	TrainElimFrac  float64 // reused instrs / base dynamic instrs
	RefElimFrac    float64
	TrainRepetElim float64 // reused instrs / region-level repetition
	RefRepetElim   float64
	TrainErr       string
	RefErr         string
}

// Fig11Result is the input-sensitivity study.
type Fig11Result struct {
	Rows []Fig11Row
	// Averages, over the cells that succeeded.
	AvgTrain, AvgRef         float64
	AvgTrainElim, AvgRefElim float64
	AvgTrainRep, AvgRefRep   float64
}

// Figure11 runs the transformed program (regions chosen on the training
// profile) on both inputs. Each (benchmark, input) pair is one cell of the
// suite's grid; a failed cell degrades that half of the row to FAILED.
func Figure11(s *Suite) (*Fig11Result, error) {
	cc := s.cfg.Opts.CRB
	rows := make([]Fig11Row, len(s.Benches))
	for i, b := range s.Benches {
		rows[i].Bench = b.Name
	}
	inputName := [2]string{"train", "ref"}
	errs := s.Grid(2,
		func(bi, pi int) string {
			return fmt.Sprintf("fig11/%s/%s", s.Benches[bi].Name, inputName[pi])
		},
		func(bi, pi int) error {
			b := s.Benches[bi]
			args := b.Train
			if pi == 1 {
				args = b.Ref
			}
			sp, err := s.Speedup(b, args, cc)
			if err != nil {
				return err
			}
			baseRun, err := s.BaseSim(b, args)
			if err != nil {
				return err
			}
			ccrRun, err := s.CCRSim(b, args, cc)
			if err != nil {
				return err
			}
			elim := float64(ccrRun.Emu.ReusedInstrs) / float64(baseRun.Emu.DynInstrs)
			lim, err := s.LimitFor(b, args)
			if err != nil {
				return err
			}
			rep := 0.0
			if lim.InstrRepetition > 0 {
				rep = float64(ccrRun.Emu.ReusedInstrs) / float64(lim.InstrRepetition)
				if rep > 1 {
					rep = 1
				}
			}
			row := &rows[bi]
			// The two input cells of one benchmark write disjoint fields.
			if pi == 0 {
				row.TrainSpeedup, row.TrainElimFrac, row.TrainRepetElim = sp, elim, rep
			} else {
				row.RefSpeedup, row.RefElimFrac, row.RefRepetElim = sp, elim, rep
			}
			return nil
		})
	for i := range errs {
		if errs[i] == nil {
			continue
		}
		row := &rows[i/2]
		if i%2 == 0 {
			row.TrainErr = shortReason(errs[i])
		} else {
			row.RefErr = shortReason(errs[i])
		}
	}
	res := &Fig11Result{}
	var trs, rfs, te, re, trp, rrp []float64
	for _, row := range rows {
		res.Rows = append(res.Rows, row)
		if row.TrainErr == "" {
			trs = append(trs, row.TrainSpeedup)
			te = append(te, row.TrainElimFrac)
			trp = append(trp, row.TrainRepetElim)
		}
		if row.RefErr == "" {
			rfs = append(rfs, row.RefSpeedup)
			re = append(re, row.RefElimFrac)
			rrp = append(rrp, row.RefRepetElim)
		}
	}
	res.AvgTrain = stats.Mean(trs)
	res.AvgRef = stats.Mean(rfs)
	res.AvgTrainElim = stats.Mean(te)
	res.AvgRefElim = stats.Mean(re)
	res.AvgTrainRep = stats.Mean(trp)
	res.AvgRefRep = stats.Mean(rrp)
	return res, nil
}

// Render formats the comparison table.
func (r *Fig11Result) Render() string {
	t := stats.Table{Header: []string{"benchmark", "train", "ref", "elim(train)", "elim(ref)", "rep-elim(train)", "rep-elim(ref)"}}
	for _, row := range r.Rows {
		trainCell := func(v string) string {
			if row.TrainErr != "" {
				return failCell(row.TrainErr)
			}
			return v
		}
		refCell := func(v string) string {
			if row.RefErr != "" {
				return failCell(row.RefErr)
			}
			return v
		}
		t.Add(row.Bench,
			trainCell(fmt.Sprintf("%.3f", row.TrainSpeedup)), refCell(fmt.Sprintf("%.3f", row.RefSpeedup)),
			trainCell(stats.Pct(row.TrainElimFrac)), refCell(stats.Pct(row.RefElimFrac)),
			trainCell(stats.Pct(row.TrainRepetElim)), refCell(stats.Pct(row.RefRepetElim)))
	}
	t.Add("average",
		fmt.Sprintf("%.3f", r.AvgTrain), fmt.Sprintf("%.3f", r.AvgRef),
		stats.Pct(r.AvgTrainElim), stats.Pct(r.AvgRefElim),
		stats.Pct(r.AvgTrainRep), stats.Pct(r.AvgRefRep))
	return "Figure 11: training vs reference input (128 entries, 8 CIs)\n" + t.String()
}
