package experiments

import (
	"fmt"

	"ccr/internal/reuse"
	"ccr/internal/stats"
	"ccr/internal/workloads"
)

// Grid runs fn(bi, pi) for every cell of the len(s.Benches) × np grid on
// the suite's pool and returns the cell errors indexed bi*np + pi; id
// labels a cell in run manifests.
//
// Dispatch order: the benchmark index varies fastest, so the first
// len(s.Benches) cells name distinct benchmarks. A benchmark's shared
// artifacts (its base run, base digest and compilations) are
// single-flight; in benchmark-major order every worker would start on
// the same benchmark and all but one would block on its flight. Each
// cell writes its result to its own (bi, pi) slot, so results do not
// depend on the order.
func (s *Suite) Grid(np int, id func(bi, pi int) string, fn func(bi, pi int) error) []error {
	nb := len(s.Benches)
	errs := s.MapErrs(nb*np,
		func(i int) string { return id(i%nb, i/nb) },
		func(i int) error { return fn(i%nb, i/nb) })
	out := make([]error, len(errs))
	for i, err := range errs {
		out[i%nb*np+i/nb] = err
	}
	return out
}

// SpeedupTable is a benchmark × point table of speedups: the body of a
// Figure 8 sweep or of an ablation.
type SpeedupTable struct {
	Rows    []string             // benchmark order
	Speedup map[string][]float64 // bench → speedup per point
	Avg     []float64            // per point
	// Failed maps a benchmark to per-point failure reasons ("" = cell ok);
	// failed cells render as FAILED and drop out of the per-point averages.
	Failed rowFailures
}

// speedupGrid runs cell for every benchmark × point on the suite's pool
// (tag prefixes the cell IDs) and tabulates the speedups. Failed cells
// degrade to FAILED entries rather than aborting the grid; errs are the
// cell errors as Grid returns them.
func speedupGrid(s *Suite, tag string, points []SweepPoint, cell func(*workloads.Benchmark, reuse.Config) (float64, error)) (t SpeedupTable, errs []error) {
	np := len(points)
	rows := make([][]float64, len(s.Benches))
	for i := range rows {
		rows[i] = make([]float64, np)
	}
	errs = s.Grid(np,
		func(bi, pi int) string { return tag + "/" + s.Benches[bi].Name + "/" + points[pi].Label },
		func(bi, pi int) (err error) {
			rows[bi][pi], err = cell(s.Benches[bi], points[pi].Reuse)
			return err
		})
	return tabulate(s.Benches, np, rows, func(bi, pi int) error { return errs[bi*np+pi] }), errs
}

// trainSpeedup is the usual grid cell: b's speedup on its training input.
func trainSpeedup(s *Suite) func(*workloads.Benchmark, reuse.Config) (float64, error) {
	return func(b *workloads.Benchmark, rc reuse.Config) (float64, error) {
		return s.SpeedupPoint(b, b.Train, rc)
	}
}

// tabulate aggregates a benchmark × point speedup matrix in benchmark
// order; a cell whose errAt is non-nil renders FAILED and drops out of
// its point's average.
func tabulate(benches []*workloads.Benchmark, np int, rows [][]float64, errAt func(bi, pi int) error) SpeedupTable {
	t := SpeedupTable{Speedup: map[string][]float64{}, Avg: make([]float64, np)}
	sums := make([][]float64, np)
	for bi, b := range benches {
		t.Rows = append(t.Rows, b.Name)
		t.Speedup[b.Name] = rows[bi]
		for pi := 0; pi < np; pi++ {
			if err := errAt(bi, pi); err != nil {
				t.Failed.set(b.Name, np, pi, err)
				continue
			}
			sums[pi] = append(sums[pi], rows[bi][pi])
		}
	}
	for pi := range sums {
		t.Avg[pi] = stats.Mean(sums[pi])
	}
	return t
}

// render formats the table under title, one column per label.
func (t *SpeedupTable) render(title string, labels []string) string {
	tb := stats.Table{Header: append([]string{"benchmark"}, labels...)}
	for _, b := range t.Rows {
		cells := []string{b}
		for pi, sp := range t.Speedup[b] {
			if reason := t.Failed.get(b, pi); reason != "" {
				cells = append(cells, failCell(reason))
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3f", sp))
		}
		tb.Add(cells...)
	}
	avg := []string{"average"}
	for _, a := range t.Avg {
		avg = append(avg, fmt.Sprintf("%.3f", a))
	}
	tb.Add(avg...)
	return title + "\n" + tb.String()
}
