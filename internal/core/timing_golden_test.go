package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ccr/internal/crb"
	"ccr/internal/ir"
	"ccr/internal/reuse"
	"ccr/internal/uarch"
	"ccr/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/timing.golden and testdata/compile.golden")

const timingGolden = "testdata/timing.golden"

// TestTimingGolden pins the timing model's full uarch.Stats — plus the
// run's result and dynamic instruction count — for every workload at tiny
// scale on its training input, under each timing configuration the
// figures use: the in-order machine with no reuse, default CCR, default
// DTM and both schemes; speculative validation under CCR; the
// out-of-order machine without and with CCR; and the instruction- and
// block-reuse baselines on the base program. The small-* rows and the
// last two run geometries at which the tables alias: a 64-entry BTB,
// smaller than every program's text, with 1 KB I- and D-caches (gcc's
// 2,389-instruction text maps many lines to one set), a 16-entry 2-way
// CRB with 2 instances per entry, and a 16-entry 2-way DTM with 2
// instances. Any change to a row means the model's output changed.
// -update rewrites the file; a change that uses it must name every
// changed row and say why.
func TestTimingGolden(t *testing.T) {
	var got strings.Builder
	for _, name := range workloads.Names() {
		for _, row := range timingRows(t, name) {
			got.WriteString(row)
		}
	}
	if *update {
		if err := os.WriteFile(timingGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(timingGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d rows, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d differs:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// timingRows compiles one tiny workload and formats one golden row per
// timing configuration.
func timingRows(t *testing.T, name string) []string {
	t.Helper()
	w := workloads.Load(name, workloads.Tiny)
	opts := DefaultOptions()
	cr, err := Compile(w.Prog, w.Train, opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	inOrder := opts.Uarch
	spec := inOrder
	spec.SpeculativeValidation = true
	ooo := inOrder
	ooo.OutOfOrder = true
	ireuse := inOrder
	ireuse.InstrReuse = true
	breuse := inOrder
	breuse.BlockReuse = true
	small := inOrder
	small.BTBEntries, small.ICacheBytes, small.DCacheBytes = 64, 1<<10, 1<<10
	smallOOO := small
	smallOOO.OutOfOrder = true
	smallIReuse := small
	smallIReuse.InstrReuse = true
	off := reuse.Config{Scheme: reuse.Off}
	ccr := reuse.CCR(opts.CRB)
	crbSmall := reuse.CCR(crb.Config{Entries: 16, Instances: 2, Assoc: 2})
	dtmSmall := reuse.DTMOnly(reuse.DTMConfig{Entries: 16, Instances: 2, Assoc: 2, MinRun: 3})
	cases := []struct {
		label string
		prog  *ir.Program
		rc    reuse.Config
		ucfg  uarch.Config
		// buffers appends the reuse buffers' own counters to the row.
		buffers bool
	}{
		{"base", w.Prog, off, inOrder, false},
		{"ccr", cr.Prog, ccr, inOrder, false},
		{"dtm", w.Prog, reuse.DTMOnly(opts.DTM), inOrder, false},
		{"both", cr.Prog, reuse.Both(opts.CRB, opts.DTM), inOrder, false},
		{"ccr-spec", cr.Prog, ccr, spec, false},
		{"ooo-base", w.Prog, off, ooo, false},
		{"ooo-ccr", cr.Prog, ccr, ooo, false},
		{"ireuse", w.Prog, off, ireuse, false},
		{"breuse", w.Prog, off, breuse, false},
		{"small-base", w.Prog, off, small, false},
		{"small-ccr", cr.Prog, ccr, small, false},
		{"small-ooo", cr.Prog, ccr, smallOOO, false},
		{"small-ireuse", w.Prog, off, smallIReuse, false},
		{"crb-small", cr.Prog, crbSmall, inOrder, true},
		{"dtm-small", w.Prog, dtmSmall, inOrder, true},
	}
	rows := make([]string, 0, len(cases))
	for _, c := range cases {
		res, err := SimulateReuse(c.prog, c.rc, c.ucfg, w.Train, opts.Limit, nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, c.label, err)
		}
		row := fmt.Sprintf("%s/%s result=%d dyn=%d %+v", name, c.label, res.Result, res.Emu.DynInstrs, res.Uarch)
		if c.buffers {
			// The small buffers' own counters: tag misses, evictions and
			// record failures show the replacement order at work.
			if res.CRB != nil {
				row += fmt.Sprintf(" crb=%+v", *res.CRB)
			}
			if res.DTM != nil {
				row += fmt.Sprintf(" dtm=%+v", *res.DTM)
			}
		}
		rows = append(rows, row+"\n")
	}
	return rows
}
