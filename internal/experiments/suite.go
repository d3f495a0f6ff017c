// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic benchmark suite: the reuse-potential
// limit study (Figure 4), the CRB configuration sweeps (Figure 8), the
// computation-group distributions (Figure 9), the TOP-N reuse
// concentration (Figure 10), and the training/reference input comparison
// (Figure 11), plus the headline scalars quoted in the text.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"

	"ccr/internal/alias"
	"ccr/internal/core"
	"ccr/internal/crb"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/potential"
	"ccr/internal/region"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/store"
	"ccr/internal/telemetry"
	"ccr/internal/vprof"
	"ccr/internal/workloads"
)

// Config selects the workload scale and pipeline options for a full
// experiment run.
type Config struct {
	Scale workloads.Scale
	Opts  core.Options
	// Jobs is the worker count the parallel figure drivers fan their
	// simulation cells out on; <= 0 means one worker per GOMAXPROCS.
	Jobs int
	// Heartbeat, when positive, makes the suite's pool emit structured
	// progress logs at this interval during long sweeps.
	Heartbeat time.Duration
	// Telemetry attaches a cause-attributed telemetry sink to every CCR
	// simulation and embeds its per-cell summary in the attached manifest.
	Telemetry bool
	// Store, when non-nil, layers a content-addressed on-disk artifact
	// store under the single-flight caches: compilations, baseline and
	// CCR simulations, limit studies and base digests persist across
	// processes. Keys are content addresses — the prepared program's
	// dump digest plus a pipeline-options fingerprint plus the cell
	// coordinates — and the store itself enforces the build-revision
	// discipline, so a resumed sweep never trusts another build's
	// artifacts. Telemetry summaries are only embedded for cells that
	// were actually computed, not loaded.
	Store *store.Store
}

// DefaultConfig runs the suite at Medium scale with the paper's settings.
func DefaultConfig() Config {
	return Config{Scale: workloads.Medium, Opts: core.DefaultOptions()}
}

// Suite caches per-benchmark compilation and simulation results so the
// figure drivers can share work: compilation and baseline timing do not
// depend on the CRB configuration. All caches are thread-safe and
// single-flight, so concurrent figure drivers (and the cells of one
// parallel sweep) never recompute or duplicate a shared artifact.
type Suite struct {
	cfg     Config
	Benches []*workloads.Benchmark

	pool   runner.Pool
	failed atomic.Int64 // cells that failed across every fan-out

	prep     *runner.Cache // name → *alias.Result (the only b.Prog mutation)
	profiles *runner.Cache // name → *profiled: the training run's value profile
	compiled *runner.Cache // name → *core.CompileResult under cfg.Opts.Region
	variants *runner.Cache // name|region options → *core.CompileResult under other options
	baseSim  *runner.Cache // name|dataset → *core.SimResult
	ccrSim   *runner.Cache // name|dataset|reuse-key → *core.SimResult
	limit    *runner.Cache // name|dataset → potential.Result
	digest   *runner.Cache // name|dataset → oracle.Digest of the base run

	// progKey caches each benchmark's content address (the SHA-256 of the
	// prepared program dump) — the store-key prefix tying every persisted
	// artifact to the exact program bytes it was computed from.
	progKey *runner.Cache
	// optsKey fingerprints cfg.Opts; it joins every store key so two
	// suites with different pipeline options never alias artifacts.
	optsKey string
}

// NewSuite loads every benchmark at the configured scale.
func NewSuite(cfg Config) *Suite {
	return NewSuiteOf(cfg, workloads.All(cfg.Scale))
}

// NewSuiteOf is NewSuite over the given benchmarks, which must be built
// at cfg.Scale. The suite prepares (alias-annotates) each program in
// place on first use, so two suites may share benchmarks only while at
// most one of them runs anything on them.
func NewSuiteOf(cfg Config, benches []*workloads.Benchmark) *Suite {
	return &Suite{
		cfg:      cfg,
		Benches:  benches,
		pool:     runner.Pool{Jobs: cfg.Jobs, Heartbeat: cfg.Heartbeat},
		prep:     runner.NewCache(),
		profiles: runner.NewCache(),
		compiled: runner.NewCache(),
		variants: runner.NewCache(),
		baseSim:  runner.NewCache(),
		ccrSim:   runner.NewCache(),
		limit:    runner.NewCache(),
		digest:   runner.NewCache(),
		progKey:  runner.NewCache(),
		optsKey:  optsFingerprint(cfg.Opts),
	}
}

// optsFingerprint derives a short canonical digest of the pipeline
// options. core.Options is a tree of plain structs, so its JSON encoding
// is deterministic (fixed field order, no maps).
func optsFingerprint(opts core.Options) string {
	b, err := json.Marshal(opts)
	if err != nil {
		// Options are always marshalable; a failure here would alias
		// every configuration, so refuse loudly instead.
		panic(fmt.Sprintf("experiments: options fingerprint: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// WithPool returns a view of s whose fan-outs run on the given pool but
// share every resident artifact with s: the benchmark programs (alias
// annotation included) and all eight single-flight caches. The view has its
// own failed-cell counter and the pool its own manifest/heartbeat sink, so
// a long-running service can give each request private progress streaming
// and accounting while every request warms the same caches.
func (s *Suite) WithPool(pool runner.Pool) *Suite {
	return &Suite{
		cfg:     s.cfg,
		Benches: s.Benches,
		pool:    pool,
		prep:    s.prep, profiles: s.profiles, compiled: s.compiled, variants: s.variants,
		baseSim: s.baseSim, ccrSim: s.ccrSim, limit: s.limit, digest: s.digest,
		progKey: s.progKey, optsKey: s.optsKey,
	}
}

// Jobs returns the effective worker count of the suite's pool.
func (s *Suite) Jobs() int {
	if s.cfg.Jobs > 0 {
		return s.cfg.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// AttachManifest routes every subsequent RunCells fan-out into m; call
// FlushCacheStats when the run is over to record the cache counters too.
func (s *Suite) AttachManifest(m *runner.Manifest) { s.pool.Manifest = m }

// CacheStats reports the hit/miss counters of the shared artifact caches.
func (s *Suite) CacheStats() map[string]runner.CacheStats {
	return map[string]runner.CacheStats{
		"prepare":  s.prep.Stats(),
		"profile":  s.profiles.Stats(),
		"compile":  s.compiled.Stats(),
		"variant":  s.variants.Stats(),
		"base_sim": s.baseSim.Stats(),
		"ccr_sim":  s.ccrSim.Stats(),
		"limit":    s.limit.Stats(),
		"digest":   s.digest.Stats(),
	}
}

// FlushCacheStats copies the current cache counters into m, along with
// the artifact store's outcome counters when a store is attached.
func (s *Suite) FlushCacheStats(m *runner.Manifest) {
	for name, st := range s.CacheStats() {
		m.SetCache(name, st)
	}
	if s.cfg.Store != nil {
		m.SetStore(s.cfg.Store.Stats())
	}
}

// Store returns the attached artifact store (nil when the suite is
// memory-only).
func (s *Suite) Store() *store.Store { return s.cfg.Store }

// progDigest returns (computing once per benchmark) b's content address:
// the SHA-256 of the prepared program's textual dump. It runs after
// prepared(b), so the digest covers the alias annotations too and the
// program is never dumped while being mutated.
func (s *Suite) progDigest(b *workloads.Benchmark) (string, error) {
	v, err := s.progKey.Do(b.Name, func() (any, error) {
		if _, err := s.prepared(b); err != nil {
			return nil, err
		}
		sum := sha256.Sum256([]byte(b.Prog.Dump()))
		return hex.EncodeToString(sum[:16]), nil
	})
	if err != nil {
		return "", err
	}
	return v.(string), nil
}

// storeKey assembles the full content address of one artifact: program
// digest, options fingerprint, then the cell coordinates. Without a store
// nothing is addressed, so it only prepares b and returns "".
func (s *Suite) storeKey(b *workloads.Benchmark, rest string) (string, error) {
	if s.cfg.Store == nil {
		_, err := s.prepared(b)
		return "", err
	}
	pd, err := s.progDigest(b)
	if err != nil {
		return "", err
	}
	return pd + "|" + s.optsKey + "|" + rest, nil
}

// fromStore loads a persisted artifact when a store is attached; any
// store-level read error degrades to a miss (the artifact is recomputed).
func (s *Suite) fromStore(kind, key string, out any) bool {
	if s.cfg.Store == nil || key == "" {
		return false
	}
	ok, err := s.cfg.Store.Get(kind, key, out)
	if err != nil {
		slog.Warn("experiments: store read failed; recomputing", "kind", kind, "err", err)
		return false
	}
	return ok
}

// toStore persists an artifact when a store is attached. Persistence is
// best-effort: a failed write only costs the durability of this one
// artifact, never the run.
func (s *Suite) toStore(kind, key string, v any) {
	if s.cfg.Store == nil || key == "" {
		return
	}
	if err := s.cfg.Store.Put(kind, key, v); err != nil {
		slog.Warn("experiments: store write failed", "kind", kind, "err", err)
	}
}

// runCells fans cells out across the suite's worker pool, counting
// failures toward FailedCells.
func (s *Suite) runCells(cells []runner.Cell) []runner.CellResult {
	results := s.pool.Run(context.Background(), cells)
	for i := range results {
		if results[i].Err != nil {
			s.failed.Add(1)
		}
	}
	return results
}

// RunCells fans cells out across the suite's worker pool and joins the
// per-cell errors in input order. A failing cell does not abort the sweep.
func (s *Suite) RunCells(cells []runner.Cell) error {
	return runner.Errs(s.runCells(cells))
}

// Map is the index-based fan-out the figure drivers use: it runs fn(i) for
// every i in [0, n) across the pool; id labels cell i in run manifests.
// fn must write its result to a distinct location per index — results then
// come out deterministic regardless of completion order.
func (s *Suite) Map(n int, id func(int) string, fn func(int) error) error {
	return errsJoin(s.MapErrs(n, id, fn))
}

// MapErrs is Map returning the per-index error vector: errs[i] is non-nil
// exactly when cell i failed (including recovered panics and timeouts).
// The figure drivers use it to degrade gracefully, rendering a failed
// cell as a FAILED row instead of aborting the whole figure.
func (s *Suite) MapErrs(n int, id func(int) string, fn func(int) error) []error {
	cells := make([]runner.Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = runner.Cell{ID: id(i), Do: func(context.Context) error { return fn(i) }}
	}
	results := s.runCells(cells)
	errs := make([]error, n)
	for i := range results {
		errs[i] = results[i].Err
	}
	return errs
}

// FailedCells reports how many cells have failed across every fan-out of
// this suite — the -strict exit condition.
func (s *Suite) FailedCells() int { return int(s.failed.Load()) }

// prepared returns (running once per benchmark) the alias analysis of b,
// annotating b.Prog in place. Every other suite entry point funnels
// through it first, so b.Prog is never mutated while another goroutine
// simulates it.
func (s *Suite) prepared(b *workloads.Benchmark) (*alias.Result, error) {
	v, err := s.prep.Do(b.Name, func() (any, error) {
		return core.Prepare(b.Prog), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*alias.Result), nil
}

// storedCompile is the persisted form of a compilation: the transformed
// program as its canonical textual dump (regions, annotations and data
// included — the round-trip the IR fuzz target guards) plus the training
// run's architectural result. Plans, profile and alias analysis are
// process-local working state and are not persisted; every suite consumer
// reads only Prog and TrainResult.
type storedCompile struct {
	Prog        string `json:"prog"`
	TrainResult int64  `json:"train_result"`
}

// profiled is one benchmark's profiling run on its training input.
type profiled struct {
	prof  *vprof.Profile
	train int64 // the run's architectural result
}

// profile returns (running once per benchmark) the value profile of b's
// training run on the prepared program. It depends on neither the region
// options nor the reuse hardware, so every compilation of b forms its
// regions from this one read-only profile.
func (s *Suite) profile(b *workloads.Benchmark) (*profiled, error) {
	v, err := s.profiles.Do(b.Name, func() (any, error) {
		if _, err := s.prepared(b); err != nil {
			return nil, err
		}
		prof, train, err := core.ProfileRun(b.Prog, b.Train, s.cfg.Opts.Limit)
		if err != nil {
			return nil, fmt.Errorf("experiments: profiling run %s: %w", b.Name, err)
		}
		return &profiled{prof: prof, train: train}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*profiled), nil
}

// Compiled returns (building on demand) the CCR compilation of the named
// benchmark under the suite's own options.
func (s *Suite) Compiled(b *workloads.Benchmark) (*core.CompileResult, error) {
	return s.CompiledUnder(b, s.cfg.Opts.Region)
}

// CompiledUnder returns (building on demand) b compiled under region
// options ro, formed from b's one training profile (see profile). The
// suite's own options fill the compile cache: with a store attached that
// transformed program persists across processes, and a persisted program
// that fails to re-parse degrades to a recompilation, never an error.
// Other options fill the variant cache, which stays in memory.
func (s *Suite) CompiledUnder(b *workloads.Benchmark, ro region.Options) (*core.CompileResult, error) {
	own := ro == s.cfg.Opts.Region
	cache, key := s.compiled, b.Name
	if !own {
		cache, key = s.variants, fmt.Sprintf("%s|%v", b.Name, ro)
	}
	v, err := cache.Do(key, func() (any, error) {
		var skey string
		if own {
			var err error
			if skey, err = s.storeKey(b, "compile"); err != nil {
				return nil, err
			}
		}
		var sc storedCompile
		if s.fromStore("compile", skey, &sc) {
			prog, perr := ir.Parse(sc.Prog)
			if perr == nil {
				return &core.CompileResult{Prog: prog, TrainResult: sc.TrainResult}, nil
			}
			slog.Warn("experiments: persisted compile unparsable; recompiling",
				"bench", b.Name, "err", perr)
		}
		ar, err := s.prepared(b)
		if err != nil {
			return nil, err
		}
		p, err := s.profile(b)
		if err != nil {
			return nil, err
		}
		cr, err := core.CompileFrom(b.Prog, ar, p.prof, p.train, ro)
		if err != nil {
			return nil, fmt.Errorf("experiments: compile %s: %w", b.Name, err)
		}
		if skey != "" {
			s.toStore("compile", skey, storedCompile{Prog: cr.Prog.Dump(), TrainResult: cr.TrainResult})
		}
		return cr, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.CompileResult), nil
}

func dsKey(args []int64) string { return fmt.Sprintf("%v", args) }

// BaseSim returns the cached baseline timing run of b on args.
func (s *Suite) BaseSim(b *workloads.Benchmark, args []int64) (*core.SimResult, error) {
	r, _, err := s.baseRun(b, args, nil)
	return r, err
}

// baseRun is BaseSim's cache and store path. Like reuseSim, a non-nil
// digest asks for the base run's oracle digest as well: when this caller
// computes the timed run itself (a cache and store miss), the run folds
// the digest in the same execution and baseRun writes it to *digest,
// reporting true. A run served from the cache, the store or another
// caller's flight carries no digest, and baseRun reports false.
func (s *Suite) baseRun(b *workloads.Benchmark, args []int64, digest *oracle.Digest) (*core.SimResult, bool, error) {
	fresh := false
	v, err := s.baseSim.Do(b.Name+"|"+dsKey(args), func() (any, error) {
		key, err := s.storeKey(b, "ds="+dsKey(args))
		if err != nil {
			return nil, err
		}
		var cached core.SimResult
		if s.fromStore("base_sim", key, &cached) {
			return &cached, nil
		}
		var r *core.SimResult
		if digest != nil {
			r, *digest, err = core.SimulateReuseDigest(b.Prog, reuse.Config{Scheme: reuse.Off}, s.cfg.Opts.Uarch, args, s.cfg.Opts.Limit, nil)
		} else {
			r, err = core.Simulate(b.Prog, nil, s.cfg.Opts.Uarch, args, s.cfg.Opts.Limit)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: base sim %s: %w", b.Name, err)
		}
		s.toStore("base_sim", key, r)
		fresh = digest != nil
		return r, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*core.SimResult), fresh, nil
}

// progFor returns the program a reuse scheme runs on: schemes with a CCR
// component need the transformed binary (reuse/invalidate instructions),
// while off and dtm run the untransformed base program — DTM is a pure
// runtime mechanism with no compiler support. The base program is
// prepared first so it is never annotated concurrently with a run.
func (s *Suite) progFor(b *workloads.Benchmark, rc reuse.Config) (*ir.Program, error) {
	if rc.Scheme.UsesCCR() {
		cr, err := s.Compiled(b)
		if err != nil {
			return nil, err
		}
		return cr.Prog, nil
	}
	if _, err := s.prepared(b); err != nil {
		return nil, err
	}
	return b.Prog, nil
}

// ReuseSim returns the cached timing run of b on args under an arbitrary
// reuse scheme. Scheme off delegates to BaseSim — the two are the same
// run by construction, so they share one cache slot and are bit-identical.
// Cache and store keys embed the full scheme key (reuse.Config.Key), so a
// CCR and a DTM run with coinciding numeric geometry can never alias.
func (s *Suite) ReuseSim(b *workloads.Benchmark, args []int64, rc reuse.Config) (*core.SimResult, error) {
	r, _, err := s.reuseSim(b, args, rc, nil)
	return r, err
}

// reuseSim is ReuseSim's cache and store path. A non-nil digest asks for
// the scheme run's oracle digest as well: when this caller computes the
// timed run itself (a cache and store miss), the run folds the digest in
// the same execution and reuseSim writes it to *digest, reporting true.
// A sim served from BaseSim, the store or another caller's flight carries
// no digest, and reuseSim reports false.
func (s *Suite) reuseSim(b *workloads.Benchmark, args []int64, rc reuse.Config, digest *oracle.Digest) (*core.SimResult, bool, error) {
	if rc.Scheme == reuse.Off {
		r, err := s.BaseSim(b, args)
		return r, false, err
	}
	key := b.Name + "|" + dsKey(args) + "|" + rc.Key()
	fresh := false
	v, err := s.ccrSim.Do(key, func() (any, error) {
		skey, err := s.storeKey(b, "ds="+dsKey(args)+"|"+rc.Key())
		if err != nil {
			return nil, err
		}
		var cached core.SimResult
		if s.fromStore("ccr_sim", skey, &cached) {
			return &cached, nil
		}
		prog, err := s.progFor(b, rc)
		if err != nil {
			return nil, err
		}
		var tel *core.Telemetry
		if s.cfg.Telemetry {
			tel = &core.Telemetry{Metrics: telemetry.NewMetrics()}
		}
		var r *core.SimResult
		if digest != nil {
			r, *digest, err = core.SimulateReuseDigest(prog, rc, s.cfg.Opts.Uarch, args, s.cfg.Opts.Limit, tel)
		} else {
			r, err = core.SimulateReuse(prog, rc, s.cfg.Opts.Uarch, args, s.cfg.Opts.Limit, tel)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s sim %s: %w", rc.Scheme, b.Name, err)
		}
		if tel != nil && s.pool.Manifest != nil {
			s.pool.Manifest.SetTelemetry("ccr_sim/"+key, tel.Metrics.Summary())
		}
		s.toStore("ccr_sim", skey, r)
		fresh = digest != nil
		return r, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*core.SimResult), fresh, nil
}

// CCRSim returns the cached CCR timing run of b on args with the given
// CRB configuration — the classic scheme through the generic seam.
func (s *Suite) CCRSim(b *workloads.Benchmark, args []int64, cc crb.Config) (*core.SimResult, error) {
	return s.ReuseSim(b, args, reuse.CCR(cc))
}

// OverheadSim returns the cached timing run of the *transformed* program
// with no reuse hardware attached: every reuse instruction misses and
// every invalidate is a no-op, so the run prices the pure instruction
// overhead of the CCR transformation. The decanting analysis diffs its
// opcode histogram against reuse runs to attribute eliminated work.
func (s *Suite) OverheadSim(b *workloads.Benchmark, args []int64) (*core.SimResult, error) {
	key := b.Name + "|" + dsKey(args) + "|overhead"
	v, err := s.ccrSim.Do(key, func() (any, error) {
		skey, err := s.storeKey(b, "ds="+dsKey(args)+"|overhead")
		if err != nil {
			return nil, err
		}
		var cached core.SimResult
		if s.fromStore("ccr_sim", skey, &cached) {
			return &cached, nil
		}
		cr, err := s.Compiled(b)
		if err != nil {
			return nil, err
		}
		r, err := core.Simulate(cr.Prog, nil, s.cfg.Opts.Uarch, args, s.cfg.Opts.Limit)
		if err != nil {
			return nil, fmt.Errorf("experiments: overhead sim %s: %w", b.Name, err)
		}
		s.toStore("ccr_sim", skey, r)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.SimResult), nil
}

// Limit returns the cached reuse-potential limit study of b on its
// training input (Figure 4 runs on the base binary).
func (s *Suite) Limit(b *workloads.Benchmark) (potential.Result, error) {
	return s.LimitFor(b, b.Train)
}

// LimitFor runs (and caches) the limit study for a specific input vector.
func (s *Suite) LimitFor(b *workloads.Benchmark, args []int64) (potential.Result, error) {
	v, err := s.limit.Do(b.Name+"|"+dsKey(args), func() (any, error) {
		key, err := s.storeKey(b, "ds="+dsKey(args))
		if err != nil {
			return nil, err
		}
		var cached potential.Result
		if s.fromStore("limit", key, &cached) {
			return cached, nil
		}
		r, err := potential.Measure(b.Prog, args, s.cfg.Opts.Limit)
		if err != nil {
			return nil, fmt.Errorf("experiments: limit study %s: %w", b.Name, err)
		}
		s.toStore("limit", key, r)
		return r, nil
	})
	if err != nil {
		return potential.Result{}, err
	}
	return v.(potential.Result), nil
}

// BaseDigest returns (computing once per benchmark × dataset) the
// architectural digest of the base program's CRB-off run — the reference
// side of every transparency check. When neither the cache nor the store
// holds the base timing run either, one execution computes both: the
// timed base run folds the digest, and BaseSim then hits its cache.
// Otherwise the digest comes from its own functional run.
func (s *Suite) BaseDigest(b *workloads.Benchmark, args []int64) (oracle.Digest, error) {
	v, err := s.digest.Do(b.Name+"|"+dsKey(args), func() (any, error) {
		key, err := s.storeKey(b, "ds="+dsKey(args))
		if err != nil {
			return nil, err
		}
		var cached oracle.Digest
		if s.fromStore("digest", key, &cached) {
			return cached, nil
		}
		var d oracle.Digest
		_, fresh, err := s.baseRun(b, args, &d)
		if err != nil {
			return nil, err
		}
		if !fresh {
			if d, err = core.DigestRun(b.Prog, nil, args, s.cfg.Opts.Limit); err != nil {
				return nil, fmt.Errorf("experiments: base digest %s: %w", b.Name, err)
			}
		}
		s.toStore("digest", key, d)
		return d, nil
	})
	if err != nil {
		return oracle.Digest{}, err
	}
	return v.(oracle.Digest), nil
}

// ReuseDigest runs b's program functionally under an arbitrary reuse
// scheme and returns its architectural digest. It is not cached: each
// (benchmark, dataset, scheme point) is checked exactly once by the
// verification sweep. Scheme off recomputes a fresh digest of the base
// program rather than returning the cached BaseDigest, so comparing the
// two genuinely re-executes the nil-reuse path.
func (s *Suite) ReuseDigest(b *workloads.Benchmark, args []int64, rc reuse.Config) (oracle.Digest, error) {
	prog, err := s.progFor(b, rc)
	if err != nil {
		return oracle.Digest{}, err
	}
	d, err := core.DigestRunReuse(prog, rc, args, s.cfg.Opts.Limit)
	if err != nil {
		return oracle.Digest{}, fmt.Errorf("experiments: %s digest %s: %w", rc.Scheme, b.Name, err)
	}
	return d, nil
}

// CCRDigest runs the transformed program functionally under the given CRB
// configuration and returns its architectural digest.
func (s *Suite) CCRDigest(b *workloads.Benchmark, args []int64, cc crb.Config) (oracle.Digest, error) {
	return s.ReuseDigest(b, args, reuse.CCR(cc))
}

// SpeedupPoint computes the paper's metric for b on args under an
// arbitrary reuse scheme, with the architectural-result cross-check every
// timed pair gets.
func (s *Suite) SpeedupPoint(b *workloads.Benchmark, args []int64, rc reuse.Config) (float64, error) {
	return s.speedup(b, args, rc, nil)
}

// SpeedupDigest is SpeedupPoint plus the scheme run's architectural
// digest, as ReuseDigest returns it. A cold point is one execution: the
// timed run folds the digest as it goes. When the timed run is served
// from the cache or the store (or is scheme off's BaseSim), the digest is
// recomputed by ReuseDigest, since digests are never cached.
func (s *Suite) SpeedupDigest(b *workloads.Benchmark, args []int64, rc reuse.Config) (float64, oracle.Digest, error) {
	var d oracle.Digest
	sp, err := s.speedup(b, args, rc, &d)
	return sp, d, err
}

// speedup is SpeedupPoint, also filling *digest when digest is non-nil.
func (s *Suite) speedup(b *workloads.Benchmark, args []int64, rc reuse.Config, digest *oracle.Digest) (float64, error) {
	base, err := s.BaseSim(b, args)
	if err != nil {
		return 0, err
	}
	run, fresh, err := s.reuseSim(b, args, rc, digest)
	if err != nil {
		return 0, err
	}
	if run.Result != base.Result {
		return 0, fmt.Errorf("experiments: %s: architectural mismatch (base %d, %s %d)",
			b.Name, base.Result, rc.Scheme, run.Result)
	}
	if digest != nil && !fresh {
		if *digest, err = s.ReuseDigest(b, args, rc); err != nil {
			return 0, err
		}
	}
	return core.Speedup(base, run), nil
}

// Speedup computes the paper's metric for b on args under CRB config cc.
func (s *Suite) Speedup(b *workloads.Benchmark, args []int64, cc crb.Config) (float64, error) {
	return s.SpeedupPoint(b, args, reuse.CCR(cc))
}
