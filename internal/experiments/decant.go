package experiments

import (
	"fmt"

	"ccr/internal/analysis"
	"ccr/internal/core"
	"ccr/internal/ir"
	"ccr/internal/reuse"
	"ccr/internal/stats"
	"ccr/internal/workloads"
)

// maxDecantDepth is the deepest loop-nesting bucket reported separately;
// contributions from deeper nests fold into the last bucket.
const maxDecantDepth = 3

// decantShapes labels the ByShape columns: compiler-formed acyclic and
// cyclic regions (the CCR mechanism) versus runtime straight-line traces
// (the DTM mechanism).
var decantShapes = [3]string{"region/acyclic", "region/cyclic", "trace"}

// DecantResult is the decanting lab: the CCR-vs-DTM-vs-both speedup
// ablation plus two decompositions of *what* each scheme eliminates —
// by opcode class and by the loop depth / mechanism shape of the code it
// short-circuits. The decompositions aggregate over the whole suite on
// training inputs.
type DecantResult struct {
	Ablation *AblationResult
	Schemes  []string
	// ByClass[si][c] is the suite-total dynamic instructions of class c
	// that scheme si eliminated relative to its reference run (the
	// transformed program without reuse hardware for CCR-bearing schemes,
	// the base program for pure DTM). Negative entries are overhead the
	// scheme added.
	ByClass [][ir.NumOpClasses]int64
	// ByDepth[si][d] is the dynamic instructions scheme si reused out of
	// code at loop depth d (d = maxDecantDepth folds deeper nests).
	ByDepth [][maxDecantDepth + 1]int64
	// ByShape[si] splits the same reused instructions by mechanism shape
	// per decantShapes.
	ByShape [][3]int64
}

// decantPoints is the scheme matrix of the decanting lab, built from the
// suite's configured CRB and trace-buffer geometries.
func decantPoints(s *Suite) []SweepPoint {
	return []SweepPoint{
		{Label: "ccr", Reuse: reuse.CCR(s.cfg.Opts.CRB)},
		{Label: "dtm", Reuse: reuse.DTMOnly(s.cfg.Opts.DTM)},
		{Label: "both", Reuse: reuse.Both(s.cfg.Opts.CRB, s.cfg.Opts.DTM)},
	}
}

// decantRef returns the reference run the decanting diff subtracts the
// scheme run from. CCR-bearing schemes run the transformed program, so
// their reference is the transformed program with no reuse hardware (the
// overhead run); the pure-runtime DTM scheme runs the base program, so its
// reference is the plain baseline.
func decantRef(s *Suite, b *workloads.Benchmark, rc reuse.Config) (*core.SimResult, error) {
	if rc.Scheme.UsesCCR() {
		return s.OverheadSim(b, b.Train)
	}
	return s.BaseSim(b, b.Train)
}

// loopDepths computes the loop-nesting depth of every block of f: the
// number of natural loops containing the block.
func loopDepths(f *ir.Func) []int {
	g := analysis.BuildCFG(f)
	loops := analysis.FindLoops(g, analysis.BuildDomTree(g))
	depth := make([]int, len(f.Blocks))
	for _, l := range loops {
		for _, b := range l.Blocks {
			depth[b]++
		}
	}
	return depth
}

// progDepths computes loopDepths for every function of prog.
func progDepths(prog *ir.Program) [][]int {
	out := make([][]int, len(prog.Funcs))
	for fi, f := range prog.Funcs {
		out[fi] = loopDepths(f)
	}
	return out
}

func depthBucket(d int) int {
	if d > maxDecantDepth {
		return maxDecantDepth
	}
	return d
}

// Decant runs the decanting ablation lab. The (benchmark × scheme) speedup
// cells run on the suite's grid; the decompositions then aggregate the
// cached simulation results in deterministic benchmark order, so the
// output is identical regardless of -jobs and of whether the cells were
// computed or loaded from a warm store. Failed cells degrade to FAILED
// ablation rows and drop out of the aggregates.
func Decant(s *Suite) (*DecantResult, error) {
	points := decantPoints(s)
	res := &DecantResult{
		Ablation: &AblationResult{Title: "Decant (a): CCR vs DTM vs both, training inputs"},
		ByClass:  make([][ir.NumOpClasses]int64, len(points)),
		ByDepth:  make([][maxDecantDepth + 1]int64, len(points)),
		ByShape:  make([][3]int64, len(points)),
	}
	for _, p := range points {
		res.Schemes = append(res.Schemes, p.Label)
		res.Ablation.Labels = append(res.Ablation.Labels, p.Label)
	}

	var errs []error
	res.Ablation.SpeedupTable, errs = speedupGrid(s, "decant", points,
		func(b *workloads.Benchmark, rc reuse.Config) (float64, error) {
			if _, err := decantRef(s, b, rc); err != nil {
				return 0, err
			}
			return s.SpeedupPoint(b, b.Train, rc)
		})

	// Decomposition pass: every fetch below is a cache (or store) hit for
	// cells that succeeded, so this sequential loop costs no simulation.
	depthCache := map[*ir.Program][][]int{}
	for si, pt := range points {
		for bi, b := range s.Benches {
			if errs[bi*len(points)+si] != nil {
				continue
			}
			run, err := s.ReuseSim(b, b.Train, pt.Reuse)
			if err != nil {
				return nil, err
			}
			ref, err := decantRef(s, b, pt.Reuse)
			if err != nil {
				return nil, err
			}
			for op := range ref.Emu.ByOp {
				if d := ref.Emu.ByOp[op] - run.Emu.ByOp[op]; d != 0 {
					res.ByClass[si][ir.Opcode(op).Class()] += d
				}
			}
			prog, err := s.progFor(b, pt.Reuse)
			if err != nil {
				return nil, err
			}
			depths, ok := depthCache[prog]
			if !ok {
				depths = progDepths(prog)
				depthCache[prog] = depths
			}
			for rid, rs := range run.Emu.Regions {
				r := prog.Regions[rid]
				res.ByDepth[si][depthBucket(depths[r.Func][r.Body])] += rs.ReusedInstrs
				if r.Kind == ir.Cyclic {
					res.ByShape[si][1] += rs.ReusedInstrs
				} else {
					res.ByShape[si][0] += rs.ReusedInstrs
				}
			}
			dec := prog.Decoded()
			for _, hs := range run.DTMHeads {
				blk := dec.Funcs[hs.Fn].Meta[hs.PC].Block
				d := 0
				if int(blk) < len(depths[hs.Fn]) {
					d = depths[hs.Fn][blk]
				}
				res.ByDepth[si][depthBucket(d)] += hs.Reused
				res.ByShape[si][2] += hs.Reused
			}
		}
	}
	return res, nil
}

// Render formats the three decanting tables.
func (r *DecantResult) Render() string {
	out := r.Ablation.Render()

	tb := stats.Table{Header: append([]string{"opcode class"}, r.Schemes...)}
	for c := ir.OpClass(0); c < ir.NumOpClasses; c++ {
		cells := []string{c.String()}
		for si := range r.Schemes {
			cells = append(cells, fmt.Sprintf("%d", r.ByClass[si][c]))
		}
		tb.Add(cells...)
	}
	out += "\nDecant (b): eliminated dynamic instructions by opcode class (suite total)\n" + tb.String()

	td := stats.Table{Header: append([]string{"reused from"}, r.Schemes...)}
	for d := 0; d <= maxDecantDepth; d++ {
		label := fmt.Sprintf("loop depth %d", d)
		if d == maxDecantDepth {
			label += "+"
		}
		cells := []string{label}
		for si := range r.Schemes {
			cells = append(cells, fmt.Sprintf("%d", r.ByDepth[si][d]))
		}
		td.Add(cells...)
	}
	for shi, shape := range decantShapes {
		cells := []string{shape}
		for si := range r.Schemes {
			cells = append(cells, fmt.Sprintf("%d", r.ByShape[si][shi]))
		}
		td.Add(cells...)
	}
	out += "\nDecant (c): reused dynamic instructions by loop depth and mechanism shape\n" + td.String()
	return out
}
