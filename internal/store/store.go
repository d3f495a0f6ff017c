// Package store is the content-addressed, on-disk artifact store under
// the experiment fabric: a durable layer beneath the experiments.Suite
// single-flight caches so compilations, simulations and oracle digests
// persist across processes, and the substrate the resumable sweep
// coordinator (internal/fabric) checks to skip completed cells.
//
// Durability contract:
//
//   - Every entry is written with one write to a private temp file in the
//     store's tmp/ directory and renamed into place, without an fsync. A
//     killed process (SIGKILL) loses nothing, because the page cache
//     outlives it. A power loss may leave an entry empty or torn under its
//     final name; the read-side check below turns that into a miss, and
//     the next Put rewrites it. An fsync would repeat that guarantee at
//     the cost of a disk flush per entry.
//   - Every entry is integrity-checked on read: the envelope records a
//     SHA-256 checksum of the payload plus the kind and key it was stored
//     under. A torn, truncated, empty or tampered entry — or one whose
//     file name does not match its recorded identity — is quarantined with
//     a logged cause and reported as a miss, never served and never a
//     panic.
//   - Every entry records the build revision that produced it. An entry
//     from a different revision is stale: counted, reported as a miss,
//     and overwritten by the next Put. Simulation results are only
//     trusted from the exact code that computed them.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"

	"ccr/internal/buildinfo"
)

// EntryFormat is the on-disk envelope format version. Entries with any
// other format value are quarantined (a future format is indistinguishable
// from corruption to an old reader, and must never be half-understood).
const EntryFormat = 1

// Entry is the on-disk envelope of one artifact.
type Entry struct {
	Format   int    `json:"format"`
	Kind     string `json:"kind"`
	Key      string `json:"key"`
	Revision string `json:"revision,omitempty"`
	// Checksum is the SHA-256 of the raw payload bytes, hex-encoded.
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// DecodeEntry parses and validates an entry envelope: well-formed JSON,
// the supported format, a non-empty kind and key, and a payload matching
// the recorded checksum. It returns an error — never panics — on any
// truncated, torn or garbage input (FuzzEntry pins this).
func DecodeEntry(data []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("store: undecodable entry: %w", err)
	}
	if e.Format != EntryFormat {
		return nil, fmt.Errorf("store: entry format %d, want %d", e.Format, EntryFormat)
	}
	if e.Kind == "" || e.Key == "" {
		return nil, fmt.Errorf("store: entry missing kind or key")
	}
	if len(e.Payload) == 0 {
		return nil, fmt.Errorf("store: entry has empty payload")
	}
	if sum := payloadChecksum(e.Payload); sum != e.Checksum {
		return nil, fmt.Errorf("store: payload checksum %s, envelope says %s", sum, e.Checksum)
	}
	return &e, nil
}

func payloadChecksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Stats counts store outcomes since Open.
type Stats struct {
	// Puts counts entries written; Hits and Misses count Get outcomes
	// (every non-hit Get is a miss, whatever the cause).
	Puts   int64 `json:"puts"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Stale counts misses caused by a revision mismatch; Corrupt counts
	// misses that quarantined an undecodable or mislabeled entry. Both
	// are included in Misses.
	Stale   int64 `json:"stale,omitempty"`
	Corrupt int64 `json:"corrupt,omitempty"`
}

// Options configures Open.
type Options struct {
	// Dir is the store root; objects/, quarantine/ and tmp/ live under it.
	Dir string
	// Revision is the build identity stamped into every written entry and
	// required of every read one; entries from any other revision are
	// stale. An empty revision (unstamped build) only matches entries
	// written by unstamped builds.
	Revision string
	// Log receives one warning per quarantined entry (nil = slog.Default).
	Log *slog.Logger
}

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use by multiple goroutines and —
// thanks to atomic write-rename — by multiple processes sharing the root.
type Store struct {
	dir      string
	revision string
	log      *slog.Logger

	puts, hits, misses, stale, corrupt atomic.Int64
}

// Open creates (if needed) and opens the store rooted at opts.Dir.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	for _, sub := range []string{"objects", "quarantine", "tmp"} {
		if err := os.MkdirAll(filepath.Join(opts.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", opts.Dir, err)
		}
	}
	log := opts.Log
	if log == nil {
		log = slog.Default()
	}
	return &Store{dir: opts.Dir, revision: opts.Revision, log: log}, nil
}

// DefaultRevision derives the artifact-store revision from the running
// binary's build identity. Unstamped builds (tests, `go run`) fall back to
// module+go version — coarser, but still refusing artifacts from a
// different toolchain.
func DefaultRevision() string {
	bi := buildinfo.Get()
	if bi.Revision != "" {
		rev := bi.Revision
		if bi.Modified {
			rev += "+dirty"
		}
		return rev
	}
	mod := bi.Module
	if mod == "" {
		mod = "ccr"
	}
	return mod + "@" + bi.GoVersion
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Revision returns the build identity entries are stamped with.
func (s *Store) Revision() string { return s.revision }

// Stats returns the outcome counters.
func (s *Store) Stats() Stats {
	return Stats{
		Puts: s.puts.Load(), Hits: s.hits.Load(), Misses: s.misses.Load(),
		Stale: s.stale.Load(), Corrupt: s.corrupt.Load(),
	}
}

// path maps (kind, key) to the entry's object path: content addressing by
// the SHA-256 of the identity, fanned out over 256 subdirectories.
func (s *Store) path(kind, key string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, "objects", name[:2], name+".json")
}

// Put stores v under (kind, key), replacing any existing entry. The write
// is atomic: concurrent writers (goroutines or processes) racing on one
// key each rename a complete entry into place and the last one wins —
// with deterministic artifacts every racer writes identical bytes anyway.
func (s *Store) Put(kind, key string, v any) error {
	if kind == "" || key == "" {
		return fmt.Errorf("store: put with empty kind or key")
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal %s/%s: %w", kind, key, err)
	}
	// The envelope is encoded without its payload, which marshals as the
	// trailing null, and the payload is spliced in for it. Marshal output
	// is already compact, so these are the bytes json.Marshal(Entry) would
	// write, without a second pass over the payload.
	head, err := json.Marshal(Entry{
		Format: EntryFormat, Kind: kind, Key: key, Revision: s.revision,
		Checksum: payloadChecksum(payload),
	})
	if err != nil {
		return fmt.Errorf("store: marshal envelope %s/%s: %w", kind, key, err)
	}
	head = bytes.TrimSuffix(head, []byte("null}"))
	data := make([]byte, 0, len(head)+len(payload)+2)
	data = append(append(append(data, head...), payload...), "}\n"...)
	path := s.path(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s/%s: %w", kind, key, err)
	}
	s.puts.Add(1)
	return nil
}

// Get loads the entry stored under (kind, key) into out (a pointer for
// json.Unmarshal) and reports whether it was found. Corrupt entries are
// quarantined and stale-revision entries skipped; both are misses, and
// neither is an error — the caller recomputes, and a later Put overwrites.
func (s *Store) Get(kind, key string, out any) (bool, error) {
	path := s.path(kind, key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: get %s/%s: %w", kind, key, err)
	}
	e, err := DecodeEntry(data)
	if err != nil {
		s.quarantine(path, kind, key, err.Error())
		return false, nil
	}
	if e.Kind != kind || e.Key != key {
		// The file's recorded identity disagrees with its address — a
		// misplaced or tampered entry must never satisfy this key.
		s.quarantine(path, kind, key,
			fmt.Sprintf("entry identifies as %s/%s", e.Kind, e.Key))
		return false, nil
	}
	if e.Revision != s.revision {
		s.misses.Add(1)
		s.stale.Add(1)
		return false, nil
	}
	if err := json.Unmarshal(e.Payload, out); err != nil {
		// The payload passed its checksum but does not decode into the
		// caller's type: a schema drift within one revision. Quarantine —
		// recomputation owns the key now.
		s.quarantine(path, kind, key, fmt.Sprintf("payload undecodable: %v", err))
		return false, nil
	}
	s.hits.Add(1)
	return true, nil
}

// quarantine moves a bad entry file out of objects/ into quarantine/,
// writing a sidecar .cause file naming why, and counts the corruption.
// The entry's key is then free: the next Get misses and the next Put
// writes a fresh entry.
func (s *Store) quarantine(path, kind, key, cause string) {
	s.misses.Add(1)
	s.corrupt.Add(1)
	dst := filepath.Join(s.dir, "quarantine", filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		// Fall back to removal: a corrupt entry must not remain readable.
		os.Remove(path)
		dst = "(unpreserved: " + err.Error() + ")"
	} else {
		os.WriteFile(dst+".cause", []byte(fmt.Sprintf("kind: %s\nkey: %s\ncause: %s\n",
			kind, key, cause)), 0o644)
	}
	s.log.Warn("store: quarantined corrupt entry",
		"kind", kind, "key", key, "cause", cause, "moved_to", dst)
}

// Quarantined returns the number of entries currently in quarantine/.
func (s *Store) Quarantined() (int, error) {
	des, err := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}

// Len walks objects/ and returns the number of resident entries.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(filepath.Join(s.dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

// EntryPath returns the object path an entry for (kind, key) would occupy
// — the seam the chaos fault injector uses to tear or restamp real
// entries in durability tests.
func (s *Store) EntryPath(kind, key string) string { return s.path(kind, key) }
