package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"ccr/internal/alias"
	"ccr/internal/core"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/region"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/store"
	"ccr/internal/vprof"
	"ccr/internal/workloads"
	"ccr/internal/xform"
)

// tsuite is the traced replay of experiments.Suite: the same single-flight
// caches (runner.Cache) and optional artifact store over the same public
// layer functions, with a span around every call into a layer. Only traced
// runs use it; untraced runs drive experiments.Suite, fabric and serve.
type tsuite struct {
	tr   *tracer
	opts core.Options
	st   *store.Store // nil: memory only

	prep, progKey, compiled, baseSim, reuseSim, digest *runner.Cache

	mu sync.Mutex
	n  layerCounts
}

// layerCounts are the work counters read at the layer boundaries.
type layerCounts struct {
	vprofInstrs, regions int64
	simInstrs, cycles    int64
	crbLookups, crbHits  int64
	dtmLookups, dtmHits  int64
	digests, batchInstrs int64
	puts, gets, getHits  int64
}

func (n *layerCounts) add(o layerCounts) {
	n.vprofInstrs += o.vprofInstrs
	n.regions += o.regions
	n.simInstrs += o.simInstrs
	n.cycles += o.cycles
	n.crbLookups += o.crbLookups
	n.crbHits += o.crbHits
	n.dtmLookups += o.dtmLookups
	n.dtmHits += o.dtmHits
	n.digests += o.digests
	n.batchInstrs += o.batchInstrs
	n.puts += o.puts
	n.gets += o.gets
	n.getHits += o.getHits
}

func newTSuite(tr *tracer, st *store.Store) *tsuite {
	return &tsuite{tr: tr, opts: core.DefaultOptions(), st: st,
		prep: runner.NewCache(), progKey: runner.NewCache(), compiled: runner.NewCache(),
		baseSim: runner.NewCache(), reuseSim: runner.NewCache(), digest: runner.NewCache()}
}

func (ts *tsuite) count(fn func(n *layerCounts)) {
	ts.mu.Lock()
	fn(&ts.n)
	ts.mu.Unlock()
}

// cacheHitRatio is hits over lookups across every single-flight cache.
func (ts *tsuite) cacheHitRatio() float64 {
	var h, m int64
	for _, c := range []*runner.Cache{ts.prep, ts.progKey, ts.compiled, ts.baseSim, ts.reuseSim, ts.digest} {
		s := c.Stats()
		h, m = h+s.Hits, m+s.Misses
	}
	return ratio(float64(h), float64(h+m))
}

func (ts *tsuite) get(parent int, kind, key string, out any) bool {
	if ts.st == nil {
		return false
	}
	var ok bool
	_ = ts.tr.do(parent, "store.get", kind, key, func(int) error {
		var err error
		ok, err = ts.st.Get(kind, key, out)
		if err != nil {
			ok = false // a read error is a miss, as in experiments.Suite
		}
		return nil
	})
	ts.count(func(n *layerCounts) {
		n.gets++
		if ok {
			n.getHits++
		}
	})
	return ok
}

func (ts *tsuite) put(parent int, kind, key string, v any) error {
	if ts.st == nil {
		return nil
	}
	ts.count(func(n *layerCounts) { n.puts++ })
	return ts.tr.do(parent, "store.put", kind, key, func(int) error {
		return ts.st.Put(kind, key, v)
	})
}

func (ts *tsuite) prepared(parent int, b *workloads.Benchmark) (*alias.Result, error) {
	v, err := ts.prep.Do(b.Name, func() (any, error) {
		var ar *alias.Result
		_ = ts.tr.do(parent, "alias", "Prepare", b.Name, func(int) error {
			ar = core.Prepare(b.Prog)
			return nil
		})
		return ar, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*alias.Result), nil
}

// key is a store key: the prepared program's content address plus rest.
func (ts *tsuite) key(parent int, b *workloads.Benchmark, rest string) (string, error) {
	v, err := ts.progKey.Do(b.Name, func() (any, error) {
		if _, err := ts.prepared(parent, b); err != nil {
			return nil, err
		}
		var sum [32]byte
		_ = ts.tr.do(parent, "ir.dump", "Dump", b.Name, func(int) error {
			sum = sha256.Sum256([]byte(b.Prog.Dump()))
			return nil
		})
		return hex.EncodeToString(sum[:16]), nil
	})
	if err != nil {
		return "", err
	}
	return v.(string) + "|" + rest, nil
}

type storedCompile struct {
	Prog        string `json:"prog"`
	TrainResult int64  `json:"train_result"`
}

// compile returns b's CCR-transformed program, from the store when it
// holds one, else through alias → vprof → region → xform.
func (ts *tsuite) compile(parent int, b *workloads.Benchmark) (*ir.Program, error) {
	v, err := ts.compiled.Do(b.Name, func() (any, error) {
		key, err := ts.key(parent, b, "compile")
		if err != nil {
			return nil, err
		}
		var sc storedCompile
		if ts.get(parent, "compile", key, &sc) {
			var prog *ir.Program
			err := ts.tr.do(parent, "ir.parse", "Parse", b.Name, func(int) error {
				var perr error
				prog, perr = ir.Parse(sc.Prog)
				return perr
			})
			if err == nil {
				return prog, nil
			}
		}
		ar, err := ts.prepared(parent, b)
		if err != nil {
			return nil, err
		}
		var (
			prof  *vprof.Profile
			train int64
			plans []*region.Plan
			prog  *ir.Program
		)
		if err := ts.tr.do(parent, "vprof", "ProfileRun", b.Name, func(int) error {
			var err error
			prof, train, err = core.ProfileRun(b.Prog, b.Train, ts.opts.Limit)
			return err
		}); err != nil {
			return nil, fmt.Errorf("profile %s: %w", b.Name, err)
		}
		_ = ts.tr.do(parent, "region", "Form", b.Name, func(int) error {
			plans = region.Form(b.Prog, prof, ar, ts.opts.Region)
			return nil
		})
		ts.count(func(n *layerCounts) {
			n.vprofInstrs += prof.TotalDyn
			n.regions += int64(len(plans))
		})
		if err := ts.tr.do(parent, "xform", "Transform", b.Name, func(int) error {
			var err error
			prog, err = xform.Transform(b.Prog, plans)
			return err
		}); err != nil {
			return nil, fmt.Errorf("transform %s: %w", b.Name, err)
		}
		if ts.st != nil {
			var text string
			_ = ts.tr.do(parent, "ir.dump", "Dump", b.Name, func(int) error {
				text = prog.Dump()
				return nil
			})
			if err := ts.put(parent, "compile", key, storedCompile{Prog: text, TrainResult: train}); err != nil {
				return nil, err
			}
		}
		return prog, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*ir.Program), nil
}

// progFor is the program a scheme runs on: the transformed binary for
// schemes with a CCR component, the prepared base program otherwise.
func (ts *tsuite) progFor(parent int, b *workloads.Benchmark, rc reuse.Config) (*ir.Program, error) {
	if rc.Scheme.UsesCCR() {
		return ts.compile(parent, b)
	}
	if _, err := ts.prepared(parent, b); err != nil {
		return nil, err
	}
	return b.Prog, nil
}

func (ts *tsuite) simulate(parent int, b *workloads.Benchmark, prog *ir.Program, rc reuse.Config, args []int64) (*core.SimResult, error) {
	var r *core.SimResult
	err := ts.tr.do(parent, "uarch", "SimulateReuse", b.Name, func(int) error {
		var err error
		r, err = core.SimulateReuse(prog, rc, ts.opts.Uarch, args, ts.opts.Limit, nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("simulate %s %s: %w", b.Name, rc.Key(), err)
	}
	ts.count(func(n *layerCounts) {
		n.simInstrs += r.Uarch.Instrs
		n.cycles += r.Cycles
		if r.CRB != nil {
			n.crbLookups += r.CRB.Lookups
			n.crbHits += r.CRB.Hits
		}
		if r.DTM != nil {
			n.dtmLookups += r.DTM.Lookups
			n.dtmHits += r.DTM.Hits
		}
	})
	return r, nil
}

// sim is the cached timing run of b on args under rc (off = the base run).
func (ts *tsuite) sim(parent int, b *workloads.Benchmark, args []int64, rc reuse.Config) (*core.SimResult, error) {
	cache, kind, cfgKey := ts.reuseSim, "ccr_sim", rc.Key()
	if rc.Scheme == reuse.Off {
		cache, kind = ts.baseSim, "base_sim"
	}
	ds := fmt.Sprint(args)
	v, err := cache.Do(b.Name+"|"+ds+"|"+cfgKey, func() (any, error) {
		key, err := ts.key(parent, b, "ds="+ds+"|"+cfgKey)
		if err != nil {
			return nil, err
		}
		var cached core.SimResult
		if ts.get(parent, kind, key, &cached) {
			return &cached, nil
		}
		prog, err := ts.progFor(parent, b, rc)
		if err != nil {
			return nil, err
		}
		r, err := ts.simulate(parent, b, prog, rc, args)
		if err != nil {
			return nil, err
		}
		return r, ts.put(parent, kind, key, r)
	})
	if err != nil {
		return nil, err
	}
	return v.(*core.SimResult), nil
}

// speedup is experiments.Suite.SpeedupPoint: base and reuse timing runs
// with the architectural-result cross-check.
func (ts *tsuite) speedup(parent int, b *workloads.Benchmark, args []int64, rc reuse.Config) (float64, error) {
	base, err := ts.sim(parent, b, args, reuse.Config{Scheme: reuse.Off})
	if err != nil {
		return 0, err
	}
	run, err := ts.sim(parent, b, args, rc)
	if err != nil {
		return 0, err
	}
	if run.Result != base.Result {
		return 0, fmt.Errorf("%s %s: result %d, base %d", b.Name, rc.Key(), run.Result, base.Result)
	}
	return core.Speedup(base, run), nil
}

func (ts *tsuite) digestRun(parent int, b *workloads.Benchmark, prog *ir.Program, rc reuse.Config, args []int64) (oracle.Digest, error) {
	var d oracle.Digest
	err := ts.tr.do(parent, "oracle", "DigestRunReuse", b.Name, func(int) error {
		var err error
		d, err = core.DigestRunReuse(prog, rc, args, ts.opts.Limit)
		return err
	})
	ts.count(func(n *layerCounts) { n.digests++ })
	return d, err
}

// baseDigest is the cached digest of b's reuse-off run on args.
func (ts *tsuite) baseDigest(parent int, b *workloads.Benchmark, args []int64) (oracle.Digest, error) {
	ds := fmt.Sprint(args)
	v, err := ts.digest.Do(b.Name+"|"+ds, func() (any, error) {
		key, err := ts.key(parent, b, "ds="+ds)
		if err != nil {
			return nil, err
		}
		var cached oracle.Digest
		if ts.get(parent, "digest", key, &cached) {
			return cached, nil
		}
		d, err := ts.digestRun(parent, b, b.Prog, reuse.Config{Scheme: reuse.Off}, args)
		if err != nil {
			return nil, err
		}
		return d, ts.put(parent, "digest", key, d)
	})
	if err != nil {
		return oracle.Digest{}, err
	}
	return v.(oracle.Digest), nil
}

// reuseDigest digests b under rc; like experiments.Suite it is never
// cached, so every cell re-proves transparency.
func (ts *tsuite) reuseDigest(parent int, b *workloads.Benchmark, args []int64, rc reuse.Config) (oracle.Digest, error) {
	prog, err := ts.progFor(parent, b, rc)
	if err != nil {
		return oracle.Digest{}, err
	}
	return ts.digestRun(parent, b, prog, rc, args)
}

// batch runs b under rc functionally with no tracer, so the engine takes
// its untraced batch tier.
func (ts *tsuite) batch(parent int, b *workloads.Benchmark, args []int64, rc reuse.Config) error {
	prog, err := ts.progFor(parent, b, rc)
	if err != nil {
		return err
	}
	return ts.tr.do(parent, "emu", "RunFunctionalReuse", b.Name, func(int) error {
		r, err := core.RunFunctionalReuse(prog, rc, args, ts.opts.Limit)
		if err != nil {
			return err
		}
		ts.count(func(n *layerCounts) { n.batchInstrs += r.Emu.DynInstrs })
		return nil
	})
}

// layerMetrics turns the spans and counters of a traced replay into the
// per-layer metrics both traced pipelines share.
func layerMetrics(self map[string]float64, n layerCounts, out map[string]float64) {
	out["alias.self_s"] = self["alias"]
	out["vprof.self_s"] = self["vprof"]
	out["vprof.instrs"] = float64(n.vprofInstrs)
	out["vprof.ns_per_instr"] = ratio(self["vprof"]*1e9, float64(n.vprofInstrs))
	out["region.self_s"] = self["region"]
	out["region.regions"] = float64(n.regions)
	out["xform.self_s"] = self["xform"]
	out["uarch.sim_s"] = self["uarch"]
	out["uarch.mips"] = ratio(float64(n.simInstrs)/1e6, self["uarch"])
	out["uarch.cycles"] = float64(n.cycles)
	out["emu.batch_s"] = self["emu"]
	out["emu.instrs"] = float64(n.batchInstrs)
	out["crb.lookups"] = float64(n.crbLookups)
	out["crb.hit_ratio"] = ratio(float64(n.crbHits), float64(n.crbLookups))
	out["reuse.dtm_lookups"] = float64(n.dtmLookups)
	out["reuse.dtm_hit_ratio"] = ratio(float64(n.dtmHits), float64(n.dtmLookups))
	out["oracle.digest_s"] = self["oracle"]
	out["oracle.digests"] = float64(n.digests)
	out["store.put_s"] = self["store.put"]
	out["store.get_s"] = self["store.get"]
	out["store.puts"] = float64(n.puts)
	out["store.hit_ratio"] = ratio(float64(n.getHits), float64(n.gets))
	out["ir.parse_s"] = self["ir.parse"]
}
