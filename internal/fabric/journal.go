package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Record is one journal line: a fully completed cell and where/when it
// ran. Records are append-only; a cell appearing twice (e.g. two runs
// racing the same journal) is tolerated on load — the outputs are
// deterministic, so duplicates are identical and the first wins.
type Record struct {
	Cell    string  `json:"cell"`
	Out     CellOut `json:"out"`
	Slot    string  `json:"slot,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
}

// Journal is the fabric's append-only completion log: one JSON object per
// line, each line written in a single contiguous write. A process killed
// mid-append therefore leaves at most one unterminated final line;
// anything ending in a newline is a complete record. Appends are not
// fsynced: a killed process loses nothing, because the page cache outlives
// it, and a power loss loses at most the unsynced tail, whose cells a
// resumed run recomputes. Run syncs the journal once, before it writes
// digests.json.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	seq int64 // next record's journal sequence number
}

// OpenJournal opens (creating if absent) the journal at path for
// appending. Use RecoverJournal to resume over an existing file — it
// truncates a torn tail first, which a blind append would otherwise merge
// the next record into.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: open journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append records one completed cell: marshal, then one write. The record
// is visible to a subsequent load only if the whole line was written. The
// returned sequence number is the record's position in journal order —
// RecoverJournal seeds it past the resumed cells, so it is the global
// virtual-time coordinate the timeline merge lays spans out by (callers
// never append a cell that is already journaled).
func (j *Journal) Append(r Record) (int64, error) {
	if r.Cell == "" {
		return 0, fmt.Errorf("fabric: journal record without cell id")
	}
	line, err := json.Marshal(r)
	if err != nil {
		return 0, fmt.Errorf("fabric: journal marshal: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return 0, fmt.Errorf("fabric: journal append: %w", err)
	}
	seq := j.seq
	j.seq++
	return seq, nil
}

// Sync flushes every appended record to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fabric: journal sync: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// LoadJournal reads a journal back into a cell→record map. An
// unterminated final line — the signature of a mid-append kill — is
// discarded and reported via torn. A terminated line that does not decode
// is not a torn tail (single-write appends make completed lines whole):
// it means the file is not a valid journal, and that is an error — never
// a panic, and never partial trust.
func LoadJournal(path string) (done map[string]Record, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]Record{}, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("fabric: read journal: %w", err)
	}
	done, good, err := parseJournal(data)
	if err != nil {
		return nil, false, err
	}
	return done, good < len(data), nil
}

// RecoverJournal prepares path for a resumed run: load the completed
// cells, truncate a torn tail if present, and reopen for appending.
func RecoverJournal(path string) (*Journal, map[string]Record, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, false, fmt.Errorf("fabric: read journal: %w", err)
	}
	done, good, perr := parseJournal(data)
	if perr != nil {
		return nil, nil, false, perr
	}
	torn := good < len(data)
	if torn {
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, nil, false, fmt.Errorf("fabric: truncate torn journal tail: %w", err)
		}
	}
	j, err := OpenJournal(path)
	if err != nil {
		return nil, nil, false, err
	}
	j.seq = int64(len(done))
	return j, done, torn, nil
}

// JournalCellOrder returns the journal's cells in first-occurrence order
// — the authoritative virtual-time axis for the sweep timeline (wall
// clocks across killed and resumed processes cannot be compared; journal
// order can). It validates via the same parser as LoadJournal, then
// re-scans the valid prefix for ordering.
func JournalCellOrder(path string) (cells []string, torn bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("fabric: read journal: %w", err)
	}
	done, good, err := parseJournal(data)
	if err != nil {
		return nil, false, err
	}
	seen := make(map[string]bool, len(done))
	for _, raw := range bytes.Split(data[:good], []byte{'\n'}) {
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var rec Record
		if uerr := strictUnmarshal(line, &rec); uerr != nil {
			return nil, false, fmt.Errorf("fabric: journal reparse: %v", uerr)
		}
		if !seen[rec.Cell] {
			seen[rec.Cell] = true
			cells = append(cells, rec.Cell)
		}
	}
	return cells, good < len(data), nil
}

// parseJournal decodes journal bytes, returning the completed cells and
// the byte length of the valid newline-terminated prefix. It is the fuzz
// surface: arbitrary input must decode, error, or truncate — never panic.
func parseJournal(data []byte) (map[string]Record, int, error) {
	done := map[string]Record{}
	off, lineno := 0, 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: torn mid-append
		}
		line := bytes.TrimSpace(data[off : off+nl])
		lineno++
		if len(line) > 0 {
			var rec Record
			if err := strictUnmarshal(line, &rec); err != nil {
				return nil, 0, fmt.Errorf("fabric: journal line %d: %v", lineno, err)
			}
			if rec.Cell == "" {
				return nil, 0, fmt.Errorf("fabric: journal line %d: record without cell id", lineno)
			}
			if _, dup := done[rec.Cell]; !dup {
				done[rec.Cell] = rec
			}
		}
		off += nl + 1
	}
	return done, off, nil
}

// strictUnmarshal decodes one journal line, rejecting trailing data after
// the object (two records fused onto one line must not silently merge).
func strictUnmarshal(line []byte, rec *Record) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(rec); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after record")
	}
	return nil
}
