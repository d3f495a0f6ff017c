package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ccr/internal/experiments"
	"ccr/internal/fabric"
	"ccr/internal/oracle"
)

// The reference outputs the workloads are checked against: the Figure 8a
// and 8b tables at small scale and the verify sweep's digests.json at tiny
// scale. Write them again with `perfbench --write-refs perfbench/ref` from
// the repository root; every verify run cross-checks the reference base
// digests against the legacy interpreter.
//
//go:embed ref/fig8_small.json ref/verify_tiny_digests.json
var refFS embed.FS

type figRef struct {
	Labels []string             `json:"labels"`
	Rows   map[string][]float64 `json:"rows"`
	Avg    []float64            `json:"avg"`
}

type fig8Refs struct {
	Fig8a figRef `json:"fig8a"`
	Fig8b figRef `json:"fig8b"`
}

type refSet struct {
	Fig8 fig8Refs
	// verifyRaw is digests.json byte for byte; verify indexes its rows.
	verifyRaw []byte
	verify    map[string]fabric.DigestRow
	// cells is the plan order of the reference rows.
	cells []string
	// base maps "bench/dataset" to the reference base-run digest.
	base map[string]oracle.Digest
}

var refs = mustLoadRefs()

func mustLoadRefs() *refSet {
	r, err := loadRefs()
	if err != nil {
		panic(fmt.Sprintf("perfbench: embedded references: %v", err))
	}
	return r
}

func loadRefs() (*refSet, error) {
	r := &refSet{verify: map[string]fabric.DigestRow{}, base: map[string]oracle.Digest{}}
	b, err := refFS.ReadFile("ref/fig8_small.json")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &r.Fig8); err != nil {
		return nil, err
	}
	if r.verifyRaw, err = refFS.ReadFile("ref/verify_tiny_digests.json"); err != nil {
		return nil, err
	}
	var rows []fabric.DigestRow
	if err := json.Unmarshal(r.verifyRaw, &rows); err != nil {
		return nil, err
	}
	for _, row := range rows {
		r.verify[row.Cell] = row
		r.cells = append(r.cells, row.Cell)
		bench, ds := cellBenchDataset(row.Cell)
		r.base[bench+"/"+ds] = row.Out.Base
	}
	return r, nil
}

// cellBenchDataset splits a fabric cell id (bench/dataset/scheme/label).
func cellBenchDataset(cell string) (bench, dataset string) {
	parts := strings.SplitN(cell, "/", 3)
	if len(parts) < 2 {
		return cell, ""
	}
	return parts[0], parts[1]
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkFigure checks every row of a Figure 8 sweep against the reference,
// and the averages when the sweep covered every reference row.
func checkFigure(c *checks, name string, rows []string, got map[string][]float64, avg []float64, want figRef) {
	for _, r := range rows {
		c.check(sameFloats(got[r], want.Rows[r]), "%s row %s: got %v, want %v", name, r, got[r], want.Rows[r])
	}
	if avg != nil && len(rows) == len(want.Rows) {
		c.check(sameFloats(avg, want.Avg), "%s average: got %v, want %v", name, avg, want.Avg)
	}
}

// checkDigests checks a sweep's digest rows: every row equal to its
// reference row and transparent under oracle.Compare, and, when the sweep
// covered every cell, the rows in plan order written as fabric writes
// digests.json byte-identical to the reference file.
func checkDigests(c *checks, name string, rows []fabric.DigestRow) {
	got := map[string]fabric.DigestRow{}
	for _, row := range rows {
		got[row.Cell] = row
		want, ok := refs.verify[row.Cell]
		cmpErr := oracle.Compare(row.Out.Base, row.Out.CCR)
		c.check(ok && row.Out == want.Out && row.Out.Verified && cmpErr == nil,
			"%s cell %s: differs from reference or not transparent (%v)", name, row.Cell, cmpErr)
	}
	if len(got) != len(refs.cells) {
		return
	}
	ordered := make([]fabric.DigestRow, 0, len(refs.cells))
	for _, cell := range refs.cells {
		ordered = append(ordered, got[cell])
	}
	raw, err := json.MarshalIndent(ordered, "", "  ")
	c.check(err == nil && bytes.Equal(append(raw, '\n'), refs.verifyRaw), "%s digests.json differs from the reference", name)
}

// writeRefs regenerates the reference files into dir from one full fig8
// iteration and one full verify iteration.
func writeRefs(e *env, dir string) error {
	s := fig8Suite(e)
	a, err := experiments.Figure8a(s)
	if err != nil {
		return err
	}
	b, err := experiments.Figure8b(s)
	if err != nil {
		return err
	}
	if s.FailedCells() != 0 {
		return fmt.Errorf("fig8: %d failed cells", s.FailedCells())
	}
	toRef := func(r *experiments.Fig8Result) figRef {
		f := figRef{Rows: r.Speedup, Avg: r.Avg}
		for _, p := range r.Points {
			f.Labels = append(f.Labels, p.Label)
		}
		return f
	}
	fig, err := json.MarshalIndent(fig8Refs{Fig8a: toRef(a), Fig8b: toRef(b)}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "fig8_small.json"), append(fig, '\n'), 0o644); err != nil {
		return err
	}
	sweep, err := os.MkdirTemp(e.tmp, "refs-")
	if err != nil {
		return err
	}
	if _, err := fabric.Run(fabric.Config{Dir: sweep, ScaleName: "tiny", Log: quietLog()}); err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(sweep, "digests.json"))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "verify_tiny_digests.json"), raw, 0o644)
}
