package ccr

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ccr/internal/experiments"
	"ccr/internal/workloads"
)

// paperGolden is the stdout of `ccrpaper -scale tiny -fig all`. Regenerate
// it only for a deliberate change to a figure:
//
//	go run ./cmd/ccrpaper -scale tiny -fig all > testdata/ccrpaper_tiny.golden
const paperGolden = "testdata/ccrpaper_tiny.golden"

// TestPaperGolden prints every ccrpaper section at tiny scale, as
// `ccrpaper -fig all` does, on one worker and on two, and requires each
// output to equal the golden byte for byte: every figure, table and
// ablation of the evaluation is pinned, and so is its independence of
// the worker count.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure at tiny scale twice")
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{1, 2} {
		cfg := experiments.DefaultConfig()
		cfg.Scale, cfg.Jobs = workloads.Tiny, jobs
		s := experiments.NewSuite(cfg)
		var out bytes.Buffer
		for _, sec := range experiments.Sections {
			if err := sec.Print(s, &out); err != nil {
				t.Fatalf("jobs=%d: section %s: %v", jobs, sec.Name, err)
			}
		}
		if got := out.Bytes(); !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("jobs=%d: line %d differs from %s:\n got: %s\nwant: %s", jobs, i+1, paperGolden, gl[i], wl[i])
				}
			}
			t.Fatalf("jobs=%d: %d lines, %s has %d", jobs, len(gl), paperGolden, len(wl))
		}
	}
}
