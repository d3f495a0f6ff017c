package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
)

// ---- chaos: torn and stale store artifacts ----

// corruptOneStoreObject truncates one stored entry in place — the torn-
// write fault a mid-kill leaves if rename durability is ever violated.
func corruptOneStoreObject(t *testing.T, storeDir string) string {
	t.Helper()
	var victim string
	filepath.Walk(filepath.Join(storeDir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && victim == "" && info.Mode().IsRegular() {
			victim = path
		}
		return nil
	})
	if victim == "" {
		t.Fatal("store has no objects to corrupt")
	}
	data := readFile(t, victim)
	if err := os.WriteFile(victim, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	return victim
}

// TestTornStoreWriteQuarantinedAndRecomputed: a truncated store entry
// must be quarantined (logged cause, counted) and its cell recomputed —
// with the final digests still byte-identical to the clean run.
func TestTornStoreWriteQuarantinedAndRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny sweep")
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	dirA, dirB := t.TempDir(), t.TempDir()

	cfg := testConfig(t, dirA)
	cfg.StoreDir = storeDir
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	corruptOneStoreObject(t, storeDir)

	cfg2 := testConfig(t, dirB)
	cfg2.StoreDir = storeDir
	res, err := Run(cfg2)
	if err != nil {
		t.Fatalf("rerun over a torn store entry failed: %v", err)
	}
	if res.Manifest.Store == nil || res.Manifest.Store.Corrupt < 1 {
		t.Errorf("torn entry not detected: %+v", res.Manifest.Store)
	}
	if n, _ := filepath.Glob(filepath.Join(storeDir, "quarantine", "*")); len(n) == 0 {
		t.Error("torn entry was not quarantined")
	}
	a := readFile(t, filepath.Join(dirA, "digests.json"))
	b := readFile(t, filepath.Join(dirB, "digests.json"))
	if !bytes.Equal(a, b) {
		t.Fatal("digests diverged after torn store entry")
	}
}

// TestStaleRevisionArtifactsRecomputed: artifacts persisted by another
// build revision must be treated as misses (counted stale, never served)
// and recomputed under the current revision.
func TestStaleRevisionArtifactsRecomputed(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny sweep")
	}
	storeDir := filepath.Join(t.TempDir(), "store")
	dirA, dirB := t.TempDir(), t.TempDir()

	cfg := testConfig(t, dirA)
	cfg.StoreDir = storeDir
	cfg.Revision = "old-build"
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig(t, dirB)
	cfg2.StoreDir = storeDir
	cfg2.Revision = "new-build"
	res, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Manifest.Store
	if st == nil || st.Stale < 1 {
		t.Errorf("stale-revision artifacts not detected: %+v", st)
	}
	if st != nil && st.Hits != 0 {
		t.Errorf("another revision's artifacts were served: %+v", st)
	}
	a := readFile(t, filepath.Join(dirA, "digests.json"))
	b := readFile(t, filepath.Join(dirB, "digests.json"))
	if !bytes.Equal(a, b) {
		t.Fatal("digests diverged across revisions (simulation nondeterminism?)")
	}
}

// ---- the kill/resume differential gate ----

// spawnCoordinator re-execs this test binary as a fabric coordinator
// (TestMain's COORD hook) computing jobs cells at a time, and waits for
// it, returning how it ended.
func spawnCoordinator(t *testing.T, dir, storeDir string, jobs, dieAfter int) *os.ProcessState {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"CCR_FABRIC_TEST_COORD=1",
		"CCR_FABRIC_TEST_DIR="+dir,
		"CCR_FABRIC_TEST_STORE="+storeDir,
		"CCR_FABRIC_TEST_JOBS="+strconv.Itoa(jobs),
		"CCR_FABRIC_TEST_DIEAFTER="+strconv.Itoa(dieAfter),
	)
	cmd.Stderr = os.Stderr
	cmd.Run()
	return cmd.ProcessState
}

// TestKillResumeDifferential is the fabric's acceptance gate, run against
// a real separate coordinator process, once per leg (the jobs the killed
// and the resumed coordinator compute at):
//
//  1. serial uninterrupted run → reference digests.json
//  2. fresh dir: coordinator SIGKILLs itself mid-sweep (after N cells)
//  3. same dir: resumed coordinator completes the remainder
//  4. the combined journal covers every cell exactly once, and
//     digests.json is byte-identical to the reference
//  5. one more run over the warm store: hit rate ≥ 0.9 in the manifest,
//     and nothing recomputed
func TestKillResumeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns coordinator subprocesses for full tiny sweeps")
	}
	serialDir := t.TempDir()
	ref := runSerial(t, serialDir)
	refBytes := readFile(t, filepath.Join(serialDir, "digests.json"))
	const dieAfter = 8

	for _, leg := range []struct{ kill, resume int }{{1, 1}, {2, 1}} {
		t.Run(fmt.Sprintf("kill-jobs%d-resume-jobs%d", leg.kill, leg.resume), func(t *testing.T) {
			killDir := t.TempDir()
			storeDir := filepath.Join(t.TempDir(), "store")

			state := spawnCoordinator(t, killDir, storeDir, leg.kill, dieAfter)
			if ws, ok := state.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("coordinator did not die by SIGKILL: %v", state)
			}
			killedDone, _, err := LoadJournal(filepath.Join(killDir, "journal.jsonl"))
			if err != nil {
				t.Fatalf("journal unreadable after SIGKILL: %v", err)
			}
			if len(killedDone) < dieAfter || len(killedDone) >= ref.Manifest.Cells {
				t.Fatalf("kill point implausible: %d cells journaled of %d", len(killedDone), ref.Manifest.Cells)
			}

			state = spawnCoordinator(t, killDir, storeDir, leg.resume, 0)
			if !state.Success() {
				t.Fatalf("resumed coordinator failed: %v", state)
			}
			requireJournalOnce(t, killDir, ref.Manifest.Cells)
			resumed := readFile(t, filepath.Join(killDir, "digests.json"))
			if !bytes.Equal(refBytes, resumed) {
				t.Fatal("kill/resume digests.json diverged from uninterrupted serial")
			}

			// A rerun over the warm store reloads everything: the ≥90%
			// hit-rate acceptance bar, reported in the manifest.
			warmDir := t.TempDir()
			state = spawnCoordinator(t, warmDir, storeDir, leg.kill, 0)
			if !state.Success() {
				t.Fatalf("warm rerun failed: %v", state)
			}
			var man Manifest
			if err := jsonUnmarshalFile(filepath.Join(warmDir, "manifest.json"), &man); err != nil {
				t.Fatal(err)
			}
			if man.StoreHitRate < 0.9 {
				t.Errorf("warm-store hit rate %.3f < 0.9 (%+v)", man.StoreHitRate, man.Store)
			}
			if man.Store == nil || man.Store.Puts != 0 {
				t.Errorf("warm rerun recomputed artifacts: %+v", man.Store)
			}
			warm := readFile(t, filepath.Join(warmDir, "digests.json"))
			if !bytes.Equal(refBytes, warm) {
				t.Fatal("warm-store digests.json diverged from serial")
			}
		})
	}
}

func jsonUnmarshalFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
