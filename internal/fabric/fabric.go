// Package fabric is the crash-safe resumable experiment fabric: it runs
// the transparency/speedup sweep grid inline or shards it across
// supervised local worker processes, journals every completed cell to an
// append-only manifest, and — layered over the content-addressed artifact
// store of internal/store — resumes a killed sweep by skipping completed
// cells and reloading partial pipeline artifacts instead of recomputing.
//
// The durability contract is differential: a sweep that is SIGKILLed at
// any point and resumed must produce a digests.json byte-identical to an
// uninterrupted serial run. That holds because every cell is a pure
// deterministic function of (benchmark bytes, dataset, reuse-scheme
// configuration, build revision), the journal only records fully computed
// cells (torn tails are discarded on load), and the store quarantines —
// never serves — entries that fail integrity or revision checks.
package fabric

import (
	"fmt"

	"ccr/internal/experiments"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// CellSpec names one sweep cell: a (benchmark, dataset, reuse scheme
// configuration) point of the verification/speedup grid. It is the unit
// of sharding, journaling and lease accounting.
type CellSpec struct {
	Bench   string       `json:"bench"`
	Dataset string       `json:"dataset"` // "train" or "ref"
	Label   string       `json:"label"`   // sweep-point label, e.g. "128E,8CI"
	Reuse   reuse.Config `json:"reuse"`
}

// ID is the cell's stable identity across runs, processes and machines —
// the journal key a resume matches against. The reuse scheme is part of
// the identity, so a CCR and a DTM cell whose labels or geometries
// coincide can never satisfy each other's journal entry.
func (c CellSpec) ID() string {
	return c.Bench + "/" + c.Dataset + "/" + string(c.Reuse.Scheme) + "/" + c.Label
}

// CellOut is one completed cell's result: both sides of the transparency
// check plus the paper's speedup metric. It round-trips through JSON
// exactly (integers and float64 shortest-form), which is what makes a
// journal-reloaded cell byte-identical to a freshly computed one.
type CellOut struct {
	Base     oracle.Digest `json:"base"`
	CCR      oracle.Digest `json:"ccr"`
	Speedup  float64       `json:"speedup"`
	Verified bool          `json:"verified"`
}

// Plan enumerates the sweep grid in canonical order — bench-major, then
// dataset, then sweep point, exactly the layout of the serial verification
// sweep — so every run of the same scale shards and journals the same cell
// set and digests.json compares byte-for-byte across modes.
func Plan(s *experiments.Suite) []CellSpec {
	points := experiments.VerifySweepPoints(s)
	var plan []CellSpec
	for _, b := range s.Benches {
		for _, ds := range []string{"train", "ref"} {
			for _, pt := range points {
				plan = append(plan, CellSpec{
					Bench: b.Name, Dataset: ds, Label: pt.Label, Reuse: pt.Reuse,
				})
			}
		}
	}
	return plan
}

// datasetArgs resolves a spec's dataset onto the benchmark's argument
// vector.
func datasetArgs(b *workloads.Benchmark, dataset string) ([]int64, error) {
	switch dataset {
	case "train":
		return b.Train, nil
	case "ref":
		return b.Ref, nil
	}
	return nil, fmt.Errorf("fabric: unknown dataset %q", dataset)
}

// computeCell runs one cell on a suite: the cached base digest, then the
// scheme run's speedup and digest from one execution when the timed run
// is not yet cached or stored, and the §3.1 transparency verdict. Pure
// and deterministic — the whole fabric rests on that.
func computeCell(s *experiments.Suite, spec CellSpec) (CellOut, error) {
	var b *workloads.Benchmark
	for _, cand := range s.Benches {
		if cand.Name == spec.Bench {
			b = cand
			break
		}
	}
	if b == nil {
		return CellOut{}, fmt.Errorf("fabric: unknown benchmark %q", spec.Bench)
	}
	args, err := datasetArgs(b, spec.Dataset)
	if err != nil {
		return CellOut{}, err
	}
	base, err := s.BaseDigest(b, args)
	if err != nil {
		return CellOut{}, err
	}
	sp, ccr, err := s.SpeedupDigest(b, args, spec.Reuse)
	if err != nil {
		return CellOut{}, err
	}
	return CellOut{
		Base:     base,
		CCR:      ccr,
		Speedup:  sp,
		Verified: oracle.Compare(base, ccr) == nil,
	}, nil
}
