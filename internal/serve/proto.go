// Package serve is the ccrd simulation service: a long-running daemon that
// keeps the expensive artifacts of the CCR pipeline — prepared (alias-
// annotated) benchmark programs, predecoded ir code, CCR compilations,
// baseline and CCR timing runs, limit studies and oracle digests — resident
// in single-flight caches across requests, and serves compile / simulate /
// sweep / verify / phases requests from many concurrent clients over the
// length-prefixed JSON protocol of internal/serve/wire.
//
// The resident state is exactly the experiments.Suite cache family, shared
// by every request at the same workload scale, so the daemon's answers are
// byte-identical to a fresh single-shot CLI run: caches only ever memoize
// deterministic pure computations keyed by their full inputs (benchmark,
// dataset, crb.Config.Key()). Warm requests skip recomputation entirely:
// a repeated request moves its cache's hit counter, not its miss counter,
// and the stats op reports those counters.
package serve

import (
	"fmt"

	"ccr/internal/buildinfo"
	"ccr/internal/core"
	"ccr/internal/crb"
	"ccr/internal/experiments"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/store"
	"ccr/internal/workloads"
)

// Operation names carried in wire.Msg.Op.
const (
	OpPing     = "ping"
	OpCompile  = "compile"
	OpSimulate = "simulate"
	OpBatch    = "batch"
	OpSweep    = "sweep"
	OpVerify   = "verify"
	OpPhases   = "phases"
	OpStats    = "stats"
	OpTop      = "top"
	OpDrain    = "drain"
)

// Hello is the handshake body, sent client-first and echoed by the server
// with its own identity. The server refuses a protocol-generation mismatch
// outright; the client refuses a build-identity mismatch (exit 2) unless
// forced, because a version-skewed pair silently voids the byte-identity
// guarantee the service advertises.
type Hello struct {
	Proto int            `json:"proto"`
	Build buildinfo.Info `json:"build"`
}

// CRBGeom selects a CRB geometry on the wire; the zero value means the
// paper's default configuration.
type CRBGeom struct {
	Entries   int     `json:"entries,omitempty"`
	Instances int     `json:"instances,omitempty"`
	Assoc     int     `json:"assoc,omitempty"`
	NoMemFrac float64 `json:"nomem_frac,omitempty"`
}

// Config materializes the geometry over the default configuration.
func (g CRBGeom) Config() crb.Config {
	c := crb.DefaultConfig()
	if g.Entries > 0 {
		c.Entries = g.Entries
	}
	if g.Instances > 0 {
		c.Instances = g.Instances
	}
	if g.Assoc > 0 {
		c.Assoc = g.Assoc
	}
	if g.NoMemFrac > 0 {
		c.NoMemEntriesFrac = g.NoMemFrac
	}
	return c
}

// DTMGeom selects a trace-memoization buffer geometry on the wire; the
// zero value means the default configuration.
type DTMGeom struct {
	Entries   int `json:"entries,omitempty"`
	Instances int `json:"instances,omitempty"`
	Assoc     int `json:"assoc,omitempty"`
	MinRun    int `json:"min_run,omitempty"`
}

// Config materializes the geometry over the default configuration.
func (g DTMGeom) Config() reuse.DTMConfig {
	c := reuse.DefaultDTMConfig()
	if g.Entries > 0 {
		c.Entries = g.Entries
	}
	if g.Instances > 0 {
		c.Instances = g.Instances
	}
	if g.Assoc > 0 {
		c.Assoc = g.Assoc
	}
	if g.MinRun > 0 {
		c.MinRun = g.MinRun
	}
	return c
}

// SimulateReq asks for one simulation cell: a (benchmark, scale, dataset)
// point run either as the base program without reuse hardware (Base) or
// under the requested reuse scheme and geometry.
type SimulateReq struct {
	Bench   string `json:"bench"`
	Scale   string `json:"scale,omitempty"`   // tiny|small|medium|large; default small
	Dataset string `json:"dataset,omitempty"` // train|ref; default train
	Base    bool   `json:"base,omitempty"`
	// Scheme selects the reuse scheme for non-Base cells: ccr (default),
	// dtm, both or off.
	Scheme string `json:"scheme,omitempty"`
	// CRB overrides the default geometry for runs with a CCR component;
	// ignored with Base or a pure-DTM scheme.
	CRB *CRBGeom `json:"crb,omitempty"`
	// DTM overrides the default trace-buffer geometry for runs with a DTM
	// component; ignored otherwise.
	DTM *DTMGeom `json:"dtm,omitempty"`
	// Digest additionally runs the functional oracle digest of the cell
	// (cached server-side) — the client-checkable transparency receipt.
	Digest bool `json:"digest,omitempty"`
	// NoTiming skips the cycle-level timing model; only meaningful
	// together with Digest (a functional-only request).
	NoTiming bool `json:"no_timing,omitempty"`
}

// reuseConfig resolves a request's scheme selection. Base requests map to
// the off scheme; non-Base requests default to the classic CCR scheme.
func reuseConfig(req SimulateReq) (reuse.Config, error) {
	if req.Base {
		return reuse.Config{Scheme: reuse.Off}, nil
	}
	sch := reuse.CCRScheme
	if req.Scheme != "" {
		var err error
		if sch, err = reuse.ParseScheme(req.Scheme); err != nil {
			return reuse.Config{}, fmt.Errorf("serve: %w", err)
		}
	}
	rc := reuse.Config{Scheme: sch}
	if sch.UsesCCR() {
		rc.CRB = crb.DefaultConfig()
		if req.CRB != nil {
			rc.CRB = req.CRB.Config()
		}
	}
	if sch.UsesDTM() {
		rc.DTM = reuse.DefaultDTMConfig()
		if req.DTM != nil {
			rc.DTM = req.DTM.Config()
		}
	}
	return rc, nil
}

// EmuStats is the wire subset of the emulator's run statistics.
type EmuStats struct {
	DynInstrs       int64 `json:"dyn_instrs"`
	ReuseHits       int64 `json:"reuse_hits,omitempty"`
	ReuseMisses     int64 `json:"reuse_misses,omitempty"`
	ReusedInstrs    int64 `json:"reused_instrs,omitempty"`
	DTMHits         int64 `json:"dtm_hits,omitempty"`
	DTMReusedInstrs int64 `json:"dtm_reused_instrs,omitempty"`
	MemoAborts      int64 `json:"memo_aborts,omitempty"`
	Invalidations   int64 `json:"invalidations,omitempty"`
}

// SimulateResp is one cell's answer.
type SimulateResp struct {
	Bench   string `json:"bench"`
	Dataset string `json:"dataset"`
	// Config is the canonical reuse.Config.Key() of the simulated scheme
	// point, or "base" for a reuse-off baseline run.
	Config string `json:"config"`
	Result int64  `json:"result"`
	// Cycles is the timing model's cycle count (0 with NoTiming).
	Cycles int64        `json:"cycles,omitempty"`
	Emu    EmuStats     `json:"emu"`
	CRB    *crb.Stats   `json:"crb,omitempty"`
	DTM    *reuse.Stats `json:"dtm,omitempty"`
	// Digest is the functional run's architectural digest when requested.
	Digest *oracle.Digest `json:"digest,omitempty"`
	// ServerNS is the server-side wall time of this cell, nanoseconds —
	// the cache-warmth signal (a warm cell is orders of magnitude faster).
	ServerNS int64 `json:"server_ns"`
}

// CompileReq asks for the CCR compilation summary of one benchmark.
type CompileReq struct {
	Bench string `json:"bench"`
	Scale string `json:"scale,omitempty"`
}

// CompileResp summarizes a compilation.
type CompileResp struct {
	Bench        string `json:"bench"`
	Regions      int    `json:"regions"`
	RegionInstrs int    `json:"region_instrs"`
	TrainResult  int64  `json:"train_result"`
	ServerNS     int64  `json:"server_ns"`
}

// BatchReq is the batch endpoint: one request, many cells, executed on a
// per-request runner.Pool over the shared resident caches.
type BatchReq struct {
	Cells []SimulateReq `json:"cells"`
	// Jobs is the pool width for this batch (0 = server default).
	Jobs int `json:"jobs,omitempty"`
	// Stream asks for progress frames while the batch runs; HeartbeatMS
	// sets their interval (default 500ms).
	Stream      bool `json:"stream,omitempty"`
	HeartbeatMS int  `json:"heartbeat_ms,omitempty"`
}

// BatchCell is one cell's outcome inside a batch response.
type BatchCell struct {
	SimulateResp
	Err string `json:"err,omitempty"`
}

// BatchResp answers a batch: results in cell order, plus pool accounting.
type BatchResp struct {
	Results     []BatchCell `json:"results"`
	Failed      int         `json:"failed"`
	Jobs        int         `json:"jobs"`
	WallSeconds float64     `json:"wall_seconds"`
}

// SweepReq runs the full speedup grid — every benchmark × dataset × the
// standard sweep geometries (the Figure 8 + ablation matrix) — on the
// resident caches.
type SweepReq struct {
	Scale       string `json:"scale,omitempty"`
	Jobs        int    `json:"jobs,omitempty"`
	Stream      bool   `json:"stream,omitempty"`
	HeartbeatMS int    `json:"heartbeat_ms,omitempty"`
}

// SweepRow is one grid point's speedup.
type SweepRow struct {
	Bench   string  `json:"bench"`
	Dataset string  `json:"dataset"`
	Config  string  `json:"config"`
	Speedup float64 `json:"speedup,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// SweepResp answers a sweep.
type SweepResp struct {
	Rows        []SweepRow `json:"rows"`
	Failed      int        `json:"failed"`
	WallSeconds float64    `json:"wall_seconds"`
}

// VerifyReq runs the §3.1 transparency-verification sweep (the same code
// path as `ccrpaper -verify`) on the resident suite.
type VerifyReq struct {
	Scale       string `json:"scale,omitempty"`
	Jobs        int    `json:"jobs,omitempty"`
	Stream      bool   `json:"stream,omitempty"`
	HeartbeatMS int    `json:"heartbeat_ms,omitempty"`
}

// VerifyResp reports the sweep outcome; Rows is empty when the
// transparency contract held at every point.
type VerifyResp struct {
	Checked     int                     `json:"checked"`
	Rows        []experiments.VerifyRow `json:"rows,omitempty"`
	WallSeconds float64                 `json:"wall_seconds"`
}

// PhasesReq runs the warm-buffer train→ref phase study of one benchmark —
// the one endpoint whose CRB state deliberately persists across program
// runs (within the request; the buffer never leaks between requests).
type PhasesReq struct {
	Bench string   `json:"bench"`
	Scale string   `json:"scale,omitempty"`
	CRB   *CRBGeom `json:"crb,omitempty"`
}

// PhasesResp carries the per-phase counters.
type PhasesResp struct {
	Bench  string                    `json:"bench"`
	Phases [2]experiments.PhaseStats `json:"phases"`
}

// ProgressBody is a streaming-progress frame's payload: one heartbeat
// snapshot of the request's pool (runner.Progress over the wire).
type ProgressBody struct {
	Done        int     `json:"done"`
	Total       int     `json:"total"`
	Failed      int     `json:"failed,omitempty"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	EtaMS       float64 `json:"eta_ms,omitempty"`
	Utilization float64 `json:"utilization"`
}

func progressBody(p runner.Progress) ProgressBody {
	return ProgressBody{
		Done: p.Done, Total: p.Total, Failed: p.Failed,
		ElapsedMS:   float64(p.Elapsed.Microseconds()) / 1e3,
		EtaMS:       float64(p.ETA.Microseconds()) / 1e3,
		Utilization: p.Utilization,
	}
}

// SuiteStats reports one resident suite's cache effectiveness.
type SuiteStats struct {
	Benches int                          `json:"benches"`
	Caches  map[string]runner.CacheStats `json:"caches"`
}

// ReuseTotals aggregates the emulator and DTM statistics of every timed
// simulation the daemon has served, by scheme key ("base", "off", "ccr",
// "dtm", "both") — the per-scheme reuse-rate view of stats and top.
type ReuseTotals struct {
	// Cells counts the timed simulate cells aggregated here.
	Cells           int64 `json:"cells"`
	DynInstrs       int64 `json:"dyn_instrs"`
	ReuseHits       int64 `json:"reuse_hits,omitempty"`
	ReuseMisses     int64 `json:"reuse_misses,omitempty"`
	ReusedInstrs    int64 `json:"reused_instrs,omitempty"`
	Invalidations   int64 `json:"invalidations,omitempty"`
	DTMHits         int64 `json:"dtm_hits,omitempty"`
	DTMReusedInstrs int64 `json:"dtm_reused_instrs,omitempty"`
	// DTM trace-buffer counters (dtm/both schemes): buffer lookups and
	// hits, traces committed, instances invalidated by store watching,
	// and distinct heads observed (summed over cells).
	DTMLookups     int64 `json:"dtm_lookups,omitempty"`
	DTMRecords     int64 `json:"dtm_records,omitempty"`
	DTMInvalidates int64 `json:"dtm_invalidates,omitempty"`
	DTMHeads       int64 `json:"dtm_heads,omitempty"`
}

// StatsResp is the daemon's self-report.
type StatsResp struct {
	Build         buildinfo.Info        `json:"build"`
	Proto         int                   `json:"proto"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	Requests      map[string]int64      `json:"requests"`
	InFlight      int64                 `json:"in_flight"`
	Conns         int64                 `json:"conns"`
	Draining      bool                  `json:"draining"`
	Suites        map[string]SuiteStats `json:"suites,omitempty"`
	// Store reports the artifact-store counters when the daemon runs with
	// -store (warm-store visibility from the client).
	Store *store.Stats `json:"store,omitempty"`
	// Reuse reports the per-scheme reuse totals of every timed simulation
	// served so far, including the DTM head/trace counters.
	Reuse map[string]ReuseTotals `json:"reuse,omitempty"`
}

// TopReq asks the daemon to stream periodic live-status snapshots as
// progress frames, answered by a final TopResp.
type TopReq struct {
	// IntervalMS is the snapshot period (default 1000, clamped to
	// [50ms, 60s]).
	IntervalMS int `json:"interval_ms,omitempty"`
	// Count bounds the stream: 0 means one snapshot, n > 0 means n
	// snapshots, -1 streams until the connection drops or the daemon
	// drains.
	Count int `json:"count,omitempty"`
}

// ActiveReq is one in-flight request in a top snapshot.
type ActiveReq struct {
	Op        string  `json:"op"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// TopSnapshot is one live-status frame: what the daemon is doing right
// now plus its cumulative counters.
type TopSnapshot struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Conns         int64                  `json:"conns"`
	InFlight      int64                  `json:"in_flight"`
	Draining      bool                   `json:"draining,omitempty"`
	Requests      map[string]int64       `json:"requests"`
	Active        []ActiveReq            `json:"active,omitempty"`
	Suites        map[string]SuiteStats  `json:"suites,omitempty"`
	Store         *store.Stats           `json:"store,omitempty"`
	Reuse         map[string]ReuseTotals `json:"reuse,omitempty"`
	Goroutines    int                    `json:"goroutines"`
	HeapBytes     uint64                 `json:"heap_bytes"`
}

// TopResp closes a top stream.
type TopResp struct {
	Snapshots int `json:"snapshots"`
}

// PingBody is echoed verbatim.
type PingBody struct {
	Nonce int64 `json:"nonce,omitempty"`
}

// DrainResp acknowledges a drain request before shutdown begins.
type DrainResp struct {
	Draining bool `json:"draining"`
}

// datasetArgs resolves a wire dataset name onto a benchmark's argument
// vector.
func datasetArgs(b *workloads.Benchmark, dataset string) ([]int64, string, error) {
	switch dataset {
	case "", "train":
		return b.Train, "train", nil
	case "ref":
		return b.Ref, "ref", nil
	}
	return nil, "", fmt.Errorf("serve: unknown dataset %q (want train or ref)", dataset)
}

// simKey canonically names a simulate cell for manifests. The scheme key
// embeds the scheme name, so cells of different schemes never alias.
func simKey(req SimulateReq) string {
	cfg := "base"
	if !req.Base {
		if rc, err := reuseConfig(req); err == nil {
			cfg = rc.Key()
		} else {
			cfg = "invalid"
		}
	}
	ds := req.Dataset
	if ds == "" {
		ds = "train"
	}
	return fmt.Sprintf("%s/%s/%s/%s", req.Bench, scaleName(req.Scale), ds, cfg)
}

// scaleName normalizes the wire scale field.
func scaleName(s string) string {
	if s == "" {
		return "small"
	}
	return s
}

// suiteConfig is the fixed pipeline configuration a resident suite runs:
// the paper's defaults at the requested scale. Geometry variations come in
// per request and key the ccr-sim cache, so one suite serves them all.
func suiteConfig(sc workloads.Scale, jobs int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = sc
	cfg.Jobs = jobs
	cfg.Opts = core.DefaultOptions()
	return cfg
}
