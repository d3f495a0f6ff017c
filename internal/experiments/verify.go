package experiments

import (
	"fmt"

	"ccr/internal/core"
	"ccr/internal/crb"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/stats"
	"ccr/internal/workloads"
)

// VerifyRow is one failed transparency check: a (benchmark, dataset, CRB
// configuration) point whose CCR run diverged from the base run — or could
// not be digested at all.
type VerifyRow struct {
	Bench   string
	Dataset string // "train" or "ref"
	Config  string // sweep-point label
	Err     string
}

// VerifyResult summarizes a transparency-verification sweep.
type VerifyResult struct {
	// Checked counts every (benchmark, dataset, config) point digested.
	Checked int
	// Rows lists the failing points; empty means the §3.1 transparency
	// contract held everywhere.
	Rows []VerifyRow
}

// Failed reports the number of failing points.
func (r *VerifyResult) Failed() int { return len(r.Rows) }

// VerifySweepPoints is the configuration matrix the verification sweep
// covers: the off scheme (a genuine re-execution of the nil-reuse path),
// the default CRB plus every Figure 8 and ablation geometry, and the DTM
// and combined schemes at their default plus a stressed small-capacity DTM
// geometry (where eviction and re-recording churn is highest) —
// deduplicated by scheme key.
func VerifySweepPoints(s *Suite) []SweepPoint {
	base := s.cfg.Opts.CRB
	tc := s.cfg.Opts.DTM
	seen := map[string]bool{}
	var pts []SweepPoint
	add := func(label string, rc reuse.Config) {
		if k := rc.Key(); !seen[k] {
			seen[k] = true
			pts = append(pts, SweepPoint{Label: label, Reuse: rc})
		}
	}
	addCRB := func(label string, c crb.Config) { add(label, reuse.CCR(c)) }
	add("off", reuse.Config{Scheme: reuse.Off})
	addCRB("default", base)
	for _, ci := range []int{4, 8, 16} { // Figure 8a
		c := base
		c.Entries, c.Instances = 128, ci
		addCRB(fmt.Sprintf("128E,%dCI", ci), c)
	}
	for _, e := range []int{32, 64, 128} { // Figure 8b
		c := base
		c.Entries, c.Instances = e, 8
		addCRB(fmt.Sprintf("%dE,8CI", e), c)
	}
	for _, a := range []int{1, 2, 4} { // associativity ablation
		c := base
		c.Entries, c.Instances, c.Assoc = 32, 8, a
		addCRB(fmt.Sprintf("32E,8CI,%d-way", a), c)
	}
	for _, frac := range []float64{0, 0.5, 0.75, 1} { // no-mem ablation
		c := base
		c.Entries, c.Instances, c.NoMemEntriesFrac = 128, 8, frac
		addCRB(fmt.Sprintf("nomem=%.0f%%", 100*frac), c)
	}
	add("dtm", reuse.DTMOnly(tc))
	small := tc
	small.Entries, small.Assoc = 16, 1
	add("dtm-small", reuse.DTMOnly(small))
	add("both", reuse.Both(base, tc))
	return pts
}

// Verify runs the differential transparency check over every benchmark ×
// dataset × CRB configuration of the sweep matrix, plus a function-level
// compilation variant at the default geometry (exercising memoization-mode
// recording and ret-stream synthesis). Each point digests the CCR run and
// oracle.Compares it against the cached base digest; divergences and run
// errors degrade to rows of the result, never abort the sweep.
func Verify(s *Suite) (*VerifyResult, error) {
	points := VerifySweepPoints(s)
	datasets := []struct {
		name string
		args func(*workloads.Benchmark) []int64
	}{
		{"train", func(b *workloads.Benchmark) []int64 { return b.Train }},
		{"ref", func(b *workloads.Benchmark) []int64 { return b.Ref }},
	}

	flOpts := s.cfg.Opts
	flOpts.Region.FunctionLevel = true

	// A grid point is a (dataset, config) pair; the last config index is
	// the function-level variant.
	nc := len(points) + 1
	np := len(datasets) * nc
	label := func(ci int) string {
		if ci == len(points) {
			return "funclevel"
		}
		return points[ci].Label
	}
	errs := s.Grid(np,
		func(bi, pi int) string {
			return fmt.Sprintf("verify/%s/%s/%s", s.Benches[bi].Name, datasets[pi/nc].name, label(pi%nc))
		},
		func(bi, pi int) error {
			b, ci := s.Benches[bi], pi%nc
			args := datasets[pi/nc].args(b)
			ref, err := s.BaseDigest(b, args)
			if err != nil {
				return err
			}
			var got oracle.Digest
			if ci == len(points) {
				cr, err := s.CompiledUnder(b, flOpts.Region)
				if err != nil {
					return fmt.Errorf("verify: funclevel compile %s: %w", b.Name, err)
				}
				got, err = core.DigestRun(cr.Prog, &flOpts.CRB, args, flOpts.Limit)
				if err != nil {
					return err
				}
			} else {
				got, err = s.ReuseDigest(b, args, points[ci].Reuse)
				if err != nil {
					return err
				}
			}
			return oracle.Compare(ref, got)
		})
	res := &VerifyResult{Checked: len(errs)}
	for i, err := range errs {
		if err == nil {
			continue
		}
		pi := i % np
		res.Rows = append(res.Rows, VerifyRow{
			Bench: s.Benches[i/np].Name, Dataset: datasets[pi/nc].name, Config: label(pi % nc), Err: shortReason(err),
		})
	}
	return res, nil
}

// Render formats the verification summary: a single line when everything
// passed, or a table of the failing points.
func (r *VerifyResult) Render() string {
	head := fmt.Sprintf("Transparency verification: %d points checked, %d failed\n", r.Checked, r.Failed())
	if len(r.Rows) == 0 {
		return head
	}
	t := stats.Table{Header: []string{"benchmark", "dataset", "config", "error"}}
	for _, row := range r.Rows {
		t.Add(row.Bench, row.Dataset, row.Config, row.Err)
	}
	return head + t.String()
}
