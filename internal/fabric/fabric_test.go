package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"ccr/internal/experiments"
	"ccr/internal/workloads"
)

// TestMain is the re-exec hub: the coordinator spawns this test binary as
// its workers (MaybeWorker), the kill/resume tests spawn it as a child
// coordinator that SIGKILLs itself mid-sweep, and the lease test turns
// the first worker incarnation into a hang.
func TestMain(m *testing.M) {
	if p := os.Getenv("CCR_FABRIC_TEST_HANG_ONCE"); p != "" && os.Getenv(EnvWorker) != "" {
		if _, err := os.Stat(p); os.IsNotExist(err) {
			os.WriteFile(p, []byte("hung\n"), 0o644)
			io.Copy(io.Discard, os.Stdin) // hang until the coordinator kills us
			os.Exit(0)
		}
	}
	MaybeWorker()
	if os.Getenv("CCR_FABRIC_TEST_COORD") == "1" {
		coordMain()
	}
	os.Exit(m.Run())
}

// coordMain runs a fabric coordinator configured entirely from the
// environment — the subprocess side of the kill/resume differential test.
func coordMain() {
	workers, _ := strconv.Atoi(os.Getenv("CCR_FABRIC_TEST_WORKERS"))
	dieAfter, _ := strconv.Atoi(os.Getenv("CCR_FABRIC_TEST_DIEAFTER"))
	cfg := Config{
		Dir:       os.Getenv("CCR_FABRIC_TEST_DIR"),
		ScaleName: "tiny",
		Benches:   testBenches,
		Workers:   workers,
		StoreDir:  os.Getenv("CCR_FABRIC_TEST_STORE"),
		Revision:  "fabric-test",
		SpanDir:   os.Getenv("CCR_FABRIC_TEST_SPANS"),
	}
	if dieAfter > 0 {
		cfg.HookAfterCell = func(n int) {
			if n >= dieAfter {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	if _, err := Run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "coord:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// testBenches keeps fabric sweeps small: 2 benches × 2 datasets × the
// sweep matrix instead of the full 13-bench grid.
var testBenches = []string{"compress", "lex"}

func testConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		Dir:       dir,
		ScaleName: "tiny",
		Benches:   testBenches,
		Revision:  "fabric-test",
		Lease:     2 * time.Minute,
	}
}

// runSerial produces the reference digests.json: inline serial mode.
func runSerial(t *testing.T, dir string) *Result {
	t.Helper()
	res, err := Run(testConfig(t, dir))
	if err != nil {
		t.Fatalf("serial fabric run failed: %v", err)
	}
	return res
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPlanCanonicalOrder(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Scale = workloads.Tiny
	s := experiments.NewSuite(cfg)
	plan := Plan(s)
	points := experiments.VerifySweepPoints(s)
	if want := len(s.Benches) * 2 * len(points); len(plan) != want {
		t.Fatalf("plan has %d cells, want %d", len(plan), want)
	}
	seen := map[string]bool{}
	for _, spec := range plan {
		if seen[spec.ID()] {
			t.Fatalf("duplicate cell id %s", spec.ID())
		}
		seen[spec.ID()] = true
	}
	// Deterministic: two plans enumerate identically.
	again := Plan(s)
	for i := range plan {
		if plan[i] != again[i] {
			t.Fatalf("plan not deterministic at %d: %+v vs %+v", i, plan[i], again[i])
		}
	}
}

// TestBenchFilterRejectsUnknown: a bench filter naming an unknown
// benchmark fails the run before any cell is computed, whether or not
// the filter also names known ones, and the error lists the known names.
func TestBenchFilterRejectsUnknown(t *testing.T) {
	for _, benches := range [][]string{{"compress", "compresss"}, {"nope"}} {
		dir := t.TempDir()
		cfg := testConfig(t, dir)
		cfg.Benches = benches
		res, err := Run(cfg)
		if err == nil {
			t.Fatalf("filter %v: run succeeded with %d digests, want an error", benches, len(res.Digests))
		}
		unknown := benches[len(benches)-1]
		for _, want := range []string{strconv.Quote(unknown), "known: ", "m88ksim"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("filter %v: error %q does not mention %s", benches, err, want)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "journal.jsonl")); !os.IsNotExist(err) {
			t.Errorf("filter %v: the failed run opened a journal (stat: %v)", benches, err)
		}
	}
}

// TestBenchFilterCanonicalOrder: a filter resolves to its benchmarks in
// the canonical order, whatever order (or repetition) it names them in,
// so the plan and digests.json do not depend on how the filter was typed.
func TestBenchFilterCanonicalOrder(t *testing.T) {
	got, err := resolveBenches(workloads.Tiny, []string{"lex", "compress", "lex"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range got {
		names = append(names, b.Name)
	}
	if want := []string{"compress", "lex"}; !slices.Equal(names, want) {
		t.Fatalf("resolved %v, want %v", names, want)
	}
}

// TestInlineRunCompletes: the reference mode computes every planned cell,
// journals them, and reports a verified sweep.
func TestInlineRunCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny sweep")
	}
	dir := t.TempDir()
	res := runSerial(t, dir)
	if res.Manifest.Computed != res.Manifest.Cells || res.Manifest.Resumed != 0 {
		t.Fatalf("inline run: %+v", res.Manifest)
	}
	if len(res.Digests) != res.Manifest.Cells {
		t.Fatalf("digests rows %d != cells %d", len(res.Digests), res.Manifest.Cells)
	}
	for _, row := range res.Digests {
		if !row.Out.Verified {
			t.Errorf("cell %s not transparency-verified", row.Cell)
		}
		if row.Out.Speedup <= 0 {
			t.Errorf("cell %s speedup %v", row.Cell, row.Out.Speedup)
		}
	}
	done, torn, err := LoadJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil || torn {
		t.Fatalf("journal after clean run: torn=%v err=%v", torn, err)
	}
	if len(done) != res.Manifest.Cells {
		t.Fatalf("journal has %d cells, want %d", len(done), res.Manifest.Cells)
	}
}

// TestWorkersMatchSerial is the sharding half of the differential gate:
// a sweep sharded across worker subprocesses must write a digests.json
// byte-identical to the inline serial run.
func TestWorkersMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses for a full tiny sweep")
	}
	serialDir, workerDir := t.TempDir(), t.TempDir()
	runSerial(t, serialDir)

	cfg := testConfig(t, workerDir)
	cfg.Workers = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sharded run failed: %v", err)
	}
	if res.Manifest.Computed != res.Manifest.Cells {
		t.Fatalf("sharded run: %+v", res.Manifest)
	}
	var active int
	for _, s := range res.Manifest.Slots {
		if s.Cells > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("work not sharded: slots %+v", res.Manifest.Slots)
	}

	serial := readFile(t, filepath.Join(serialDir, "digests.json"))
	sharded := readFile(t, filepath.Join(workerDir, "digests.json"))
	if !bytes.Equal(serial, sharded) {
		t.Fatal("sharded digests.json diverged from serial")
	}
}

// TestResumeSkipsCompleted: a second Run over the same dir finds the
// journal complete and computes nothing.
func TestResumeSkipsCompleted(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny sweep")
	}
	dir := t.TempDir()
	first := runSerial(t, dir)
	second, err := Run(testConfig(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if second.Manifest.Resumed != first.Manifest.Cells || second.Manifest.Computed != 0 {
		t.Fatalf("resume over complete journal: %+v", second.Manifest)
	}
	a, _ := json.Marshal(first.Digests)
	b, _ := json.Marshal(second.Digests)
	if !bytes.Equal(a, b) {
		t.Fatal("resumed digests diverged from original")
	}
}
