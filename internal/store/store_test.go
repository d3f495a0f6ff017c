package store

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type artifact struct {
	Name   string `json:"name"`
	Cycles int64  `json:"cycles"`
}

func openTest(t *testing.T, rev string) *Store {
	t.Helper()
	s, err := Open(Options{
		Dir:      filepath.Join(t.TempDir(), "store"),
		Revision: rev,
		Log:      slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, "rev1")
	want := artifact{Name: "compress", Cycles: 12345}
	if err := s.Put("sim", "compress|train", want); err != nil {
		t.Fatal(err)
	}
	var got artifact
	ok, err := s.Get("sim", "compress|train", &got)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v; want hit", ok, err)
	}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
	if st := s.Stats(); st.Puts != 1 || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPutWritesMarshaledEntry pins the on-disk bytes: Put writes exactly
// json.Marshal(Entry) plus a newline, for payloads and identities that
// need escaping, with and without a revision.
func TestPutWritesMarshaledEntry(t *testing.T) {
	values := []any{
		artifact{Name: "compress", Cycles: 12345},
		map[string]any{"html": "<a&b>", "sep": "x\u2028y", "utf8": "é", "nested": []any{1.5, nil, true}},
		json.RawMessage(` { "spaced" : [ 1 , 2 ] } `),
		"quote\"and\\slash",
	}
	for _, rev := range []string{"", "rev<1>"} {
		s := openTest(t, rev)
		for i, v := range values {
			kind, key := "k\"ind", fmt.Sprintf("key|<%d>|ü", i)
			if err := s.Put(kind, key, v); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(s.EntryPath(kind, key))
			if err != nil {
				t.Fatal(err)
			}
			payload, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(Entry{
				Format: EntryFormat, Kind: kind, Key: key, Revision: rev,
				Checksum: payloadChecksum(payload), Payload: payload,
			})
			if err != nil {
				t.Fatal(err)
			}
			if want = append(want, '\n'); string(got) != string(want) {
				t.Errorf("rev %q value %d:\n got %s\nwant %s", rev, i, got, want)
			}
		}
	}
}

func TestGetMissOnAbsent(t *testing.T) {
	s := openTest(t, "")
	var got artifact
	ok, err := s.Get("sim", "nothing", &got)
	if err != nil || ok {
		t.Fatalf("Get absent = %v, %v; want clean miss", ok, err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutOverwrites(t *testing.T) {
	s := openTest(t, "")
	if err := s.Put("sim", "k", artifact{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("sim", "k", artifact{Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	var got artifact
	if ok, _ := s.Get("sim", "k", &got); !ok || got.Cycles != 2 {
		t.Fatalf("after overwrite got %+v (hit=%v), want Cycles=2", got, ok)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
}

// TestCorruptEntryQuarantined proves the headline robustness property: a
// torn or garbage entry is never served and never panics — it is moved to
// quarantine with a recorded cause and the key reports a miss, so the
// caller recomputes.
func TestCorruptEntryQuarantined(t *testing.T) {
	cases := map[string]func(path string){
		"truncated": func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"garbage": func(path string) {
			os.WriteFile(path, []byte("not json at all"), 0o644)
		},
		"bitflip": func(path string) {
			data, _ := os.ReadFile(path)
			// Flip a byte inside the payload (past the envelope prefix).
			i := strings.Index(string(data), `"payload"`) + 20
			data[i] ^= 0x20
			os.WriteFile(path, data, 0o644)
		},
		"empty": func(path string) {
			os.WriteFile(path, nil, 0o644)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			s := openTest(t, "r")
			if err := s.Put("sim", "victim", artifact{Name: "x", Cycles: 7}); err != nil {
				t.Fatal(err)
			}
			corrupt(s.EntryPath("sim", "victim"))
			var got artifact
			ok, err := s.Get("sim", "victim", &got)
			if err != nil {
				t.Fatalf("corrupt entry returned error %v, want quiet miss", err)
			}
			if ok {
				t.Fatalf("corrupt entry served: %+v", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("stats = %+v, want Corrupt=1", st)
			}
			if n, _ := s.Quarantined(); n != 1 {
				t.Fatalf("quarantined = %d, want 1", n)
			}
			// The cause sidecar names the bad entry.
			des, _ := os.ReadDir(filepath.Join(s.Dir(), "quarantine"))
			foundCause := false
			for _, de := range des {
				if strings.HasSuffix(de.Name(), ".cause") {
					b, _ := os.ReadFile(filepath.Join(s.Dir(), "quarantine", de.Name()))
					if strings.Contains(string(b), "victim") {
						foundCause = true
					}
				}
			}
			if !foundCause {
				t.Fatal("no cause sidecar naming the quarantined key")
			}
			// The key is free again: recompute and re-Put succeeds.
			if err := s.Put("sim", "victim", artifact{Cycles: 8}); err != nil {
				t.Fatal(err)
			}
			if ok, _ := s.Get("sim", "victim", &got); !ok || got.Cycles != 8 {
				t.Fatalf("recomputed entry not served: %+v (hit=%v)", got, ok)
			}
		})
	}
}

// TestStaleRevisionIsMiss proves revision invalidation: an entry written
// by a different build is a counted miss (not corruption — the entry is
// intact, just untrusted), and a fresh Put replaces it.
func TestStaleRevisionIsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	old, err := Open(Options{Dir: dir, Revision: "old-rev"})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put("sim", "k", artifact{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	cur, err := Open(Options{Dir: dir, Revision: "new-rev"})
	if err != nil {
		t.Fatal(err)
	}
	var got artifact
	ok, err := cur.Get("sim", "k", &got)
	if err != nil || ok {
		t.Fatalf("stale entry served (hit=%v err=%v)", ok, err)
	}
	st := cur.Stats()
	if st.Stale != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want Stale=1 Corrupt=0", st)
	}
	if n, _ := cur.Quarantined(); n != 0 {
		t.Fatal("stale entry was quarantined; it should just be skipped")
	}
	if err := cur.Put("sim", "k", artifact{Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := cur.Get("sim", "k", &got); !ok || got.Cycles != 2 {
		t.Fatalf("replacement entry not served: %+v (hit=%v)", got, ok)
	}
}

// TestWrongIdentityQuarantined: a valid entry copied to the wrong address
// (or a hash-collision ghost) must not satisfy the key it did not record.
func TestWrongIdentityQuarantined(t *testing.T) {
	s := openTest(t, "")
	if err := s.Put("sim", "a", artifact{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.EntryPath("sim", "a"))
	other := s.EntryPath("sim", "b")
	os.MkdirAll(filepath.Dir(other), 0o755)
	os.WriteFile(other, data, 0o644)
	var got artifact
	if ok, err := s.Get("sim", "b", &got); ok || err != nil {
		t.Fatalf("misplaced entry served (hit=%v err=%v)", ok, err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want Corrupt=1", st)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := openTest(t, "")
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []string{"x", "y", "z"}[i%3]
			if err := s.Put("sim", key, artifact{Name: key, Cycles: 42}); err != nil {
				t.Error(err)
			}
			var got artifact
			if ok, err := s.Get("sim", key, &got); err != nil {
				t.Error(err)
			} else if ok && got.Cycles != 42 {
				t.Errorf("got %+v", got)
			}
		}(i)
	}
	wg.Wait()
	var got artifact
	for _, key := range []string{"x", "y", "z"} {
		if ok, err := s.Get("sim", key, &got); !ok || err != nil {
			t.Fatalf("key %s: hit=%v err=%v", key, ok, err)
		}
	}
}

func TestDecodeEntryRejects(t *testing.T) {
	good, _ := json.Marshal(Entry{
		Format: EntryFormat, Kind: "k", Key: "key",
		Checksum: payloadChecksum([]byte(`{"a":1}`)), Payload: json.RawMessage(`{"a":1}`),
	})
	if _, err := DecodeEntry(good); err != nil {
		t.Fatalf("good entry rejected: %v", err)
	}
	bad := []string{
		``, `{}`, `[1,2]`, `{"format":1}`,
		`{"format":2,"kind":"k","key":"x","checksum":"00","payload":{}}`,
		`{"format":1,"kind":"k","key":"x","checksum":"00","payload":{"a":1}}`,
		`{"format":1,"kind":"","key":"x","checksum":"00","payload":{"a":1}}`,
	}
	for _, in := range bad {
		if _, err := DecodeEntry([]byte(in)); err == nil {
			t.Errorf("DecodeEntry(%q) accepted, want error", in)
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with empty dir succeeded")
	}
}

// tmpFiles lists what the store's tmp/ directory holds.
func tmpFiles(t *testing.T, s *Store) []string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(s.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestPutLeavesNoTempFiles checks that puts — first entries in their
// fan-out directories, later ones beside them, and overwrites — leave
// tmp/ empty and every entry readable.
func TestPutLeavesNoTempFiles(t *testing.T) {
	s := openTest(t, "rev1")
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("bench%d", i)
			if err := s.Put("sim", key, artifact{Name: key, Cycles: int64(round)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if names := tmpFiles(t, s); len(names) != 0 {
		t.Fatalf("tmp/ holds %v after the puts", names)
	}
	for i := 0; i < 40; i++ {
		var got artifact
		if ok, err := s.Get("sim", fmt.Sprintf("bench%d", i), &got); !ok || err != nil || got.Cycles != 1 {
			t.Fatalf("entry %d: hit=%v err=%v %+v", i, ok, err, got)
		}
	}
	if st := s.Stats(); st.Puts != 80 {
		t.Fatalf("stats = %+v, want 80 puts", st)
	}
}

// TestPutRenameFailureRemovesTemp checks that a put whose rename fails
// reports the error, counts no put and leaves no temp file: a non-empty
// directory occupies the entry's path.
func TestPutRenameFailureRemovesTemp(t *testing.T) {
	s := openTest(t, "rev1")
	path := s.EntryPath("sim", "blocked")
	if err := os.MkdirAll(filepath.Join(path, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("sim", "blocked", artifact{Name: "blocked"}); err == nil {
		t.Fatal("Put over a non-empty directory succeeded")
	}
	if names := tmpFiles(t, s); len(names) != 0 {
		t.Fatalf("tmp/ holds %v after the failed put", names)
	}
	if st := s.Stats(); st.Puts != 0 {
		t.Fatalf("stats = %+v, want no puts", st)
	}
}
