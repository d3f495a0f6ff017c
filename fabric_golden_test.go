package ccr

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"ccr/internal/fabric"
)

// fabricDigestsRef is the canonical tiny fabric plan's digests.json, kept
// once, in the benchmark's reference set.
const fabricDigestsRef = "perfbench/ref/verify_tiny_digests.json"

// TestFabricDigestGolden runs the canonical tiny fabric plan inline (every
// benchmark, dataset, reuse scheme and swept configuration) and requires
// its digests.json to equal the committed reference byte for byte: every
// digest component, the trace checksum included, is pinned inside the
// root module's tests.
func TestFabricDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole tiny fabric plan")
	}
	want, err := os.ReadFile(fabricDigestsRef)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	if _, err := fabric.Run(fabric.Config{Dir: dir, ScaleName: "tiny", Log: log}); err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("digests.json differs from %s (%d vs %d bytes)", fabricDigestsRef, len(got), len(want))
	}
}
