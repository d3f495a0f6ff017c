package runner

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"time"

	"ccr/internal/buildinfo"
	"ccr/internal/store"
	"ccr/internal/telemetry"
)

// CellRecord is one cell's entry in a run manifest.
type CellRecord struct {
	ID      string  `json:"id"`
	Worker  int     `json:"worker"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
	// Panics is 1 when the cell panicked, and Stack preserves the
	// recovered panic's goroutine stack.
	Panics int    `json:"panics,omitempty"`
	Stack  string `json:"stack,omitempty"`
}

// WorkerRecord aggregates one worker's share of a run.
type WorkerRecord struct {
	Worker      int     `json:"worker"`
	Cells       int     `json:"cells"`
	BusySeconds float64 `json:"busy_seconds"`
	// Utilization is busy time over total wall time, set by Finish.
	Utilization float64 `json:"utilization"`
}

// Manifest is the structured record of one experiment run: the invoked
// configuration, every executed cell with its wall time and worker, the
// hit/miss counters of the shared artifact caches, and per-worker
// utilization. It is safe for concurrent recording and serializes to JSON.
type Manifest struct {
	mu sync.Mutex

	Command     string                `json:"command"`
	Version     buildinfo.Info        `json:"version"`
	Start       time.Time             `json:"start"`
	WallSeconds float64               `json:"wall_seconds"`
	Jobs        int                   `json:"jobs"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	Cells       []CellRecord          `json:"cells"`
	Workers     []WorkerRecord        `json:"workers,omitempty"`
	Caches      map[string]CacheStats `json:"caches,omitempty"`
	// Telemetry holds per-cell CRB telemetry summaries, keyed by cell (or
	// artifact) ID, when the run was executed with telemetry enabled.
	Telemetry map[string]telemetry.Summary `json:"telemetry,omitempty"`
	// Store holds the artifact store's outcome counters when the run was
	// executed over a persistent store (hits here are cells or artifacts
	// whose results were loaded instead of recomputed).
	Store  *store.Stats `json:"store,omitempty"`
	Errors []string     `json:"errors,omitempty"`
	// Failure-isolation totals across every recorded cell.
	FailedCells int `json:"failed_cells,omitempty"`
	Panics      int `json:"panics,omitempty"`
}

// NewManifest starts a manifest for the given command line and worker
// count, stamping the start time.
func NewManifest(command string, jobs int) *Manifest {
	return &Manifest{
		Command:    command,
		Version:    buildinfo.Get(),
		Start:      time.Now(),
		Jobs:       jobs,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func (m *Manifest) record(jobs int, results []CellResult, busy []time.Duration, ran []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range results {
		rec := CellRecord{ID: r.ID, Worker: r.Worker, Seconds: r.Wall.Seconds(), Stack: r.Stack}
		if r.Stack != "" {
			rec.Panics = 1
			m.Panics++
		}
		if r.Err != nil {
			rec.Error = r.Err.Error()
			m.Errors = append(m.Errors, r.Err.Error())
			m.FailedCells++
		}
		m.Cells = append(m.Cells, rec)
	}
	for len(m.Workers) < jobs {
		m.Workers = append(m.Workers, WorkerRecord{Worker: len(m.Workers)})
	}
	for w := 0; w < jobs; w++ {
		m.Workers[w].Cells += ran[w]
		m.Workers[w].BusySeconds += busy[w].Seconds()
	}
}

// SetTelemetry embeds one cell's CRB telemetry summary under its ID.
func (m *Manifest) SetTelemetry(id string, s telemetry.Summary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Telemetry == nil {
		m.Telemetry = map[string]telemetry.Summary{}
	}
	m.Telemetry[id] = s
}

// SetStore records the artifact store's outcome counters.
func (m *Manifest) SetStore(st store.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.Store = &st
}

// SetCache records the counters of one named artifact cache.
func (m *Manifest) SetCache(name string, st CacheStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Caches == nil {
		m.Caches = map[string]CacheStats{}
	}
	m.Caches[name] = st
}

// Finish stamps the total wall time and derives worker utilization.
func (m *Manifest) Finish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.WallSeconds = time.Since(m.Start).Seconds()
	for i := range m.Workers {
		if m.WallSeconds > 0 {
			m.Workers[i].Utilization = m.Workers[i].BusySeconds / m.WallSeconds
		}
	}
}

// JSON renders the manifest as indented JSON.
func (m *Manifest) JSON() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return json.MarshalIndent(m, "", "  ")
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := m.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
