package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccr/internal/buildinfo"
	"ccr/internal/core"
	"ccr/internal/crb"
	"ccr/internal/experiments"
	"ccr/internal/obsv"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/serve/wire"
	"ccr/internal/store"
	"ccr/internal/workloads"
)

// Config configures a daemon instance.
type Config struct {
	// Jobs is the default pool width for request fan-outs (0 = GOMAXPROCS).
	Jobs int
	// ManifestPath, when set, accumulates every request fan-out into one
	// run manifest and flushes it on drain.
	ManifestPath string
	// Store, when set, layers the content-addressed artifact store under
	// every resident suite, so simulation results survive daemon restarts.
	// Scales share the one store safely: keys are content-addressed by
	// program digest, so entries from different scales never collide.
	Store *store.Store
	// Spans, when set, records one "serve" span per handled request into
	// the process's span log (ccrd -spans).
	Spans *obsv.SpanLog
	// Logger receives structured server logs (nil = slog.Default).
	Logger *slog.Logger
	// build overrides the handshake identity (tests only).
	build *buildinfo.Info
}

// Server is the resident simulation service. One Server owns one listener;
// connections are handled concurrently, requests within one connection in
// order (progress frames interleave with their own request only).
type Server struct {
	cfg   Config
	log   *slog.Logger
	build buildinfo.Info
	start time.Time

	mu     sync.Mutex
	suites map[string]*suiteEntry // by scale name
	conns  map[*srvConn]struct{}
	ln     net.Listener

	reqMu sync.Mutex
	reqs  map[string]int64

	// totals aggregates per-scheme reuse statistics of timed simulations;
	// always on — the top/stats ops report it.
	totalsMu sync.Mutex
	totals   map[string]*ReuseTotals

	// active is the live table of in-flight requests behind the top op.
	activeMu sync.Mutex
	active   map[uint64]activeEntry
	activeID uint64

	inflight atomic.Int64 // requests being processed right now
	connN    atomic.Int64 // open connections
	reqWG    sync.WaitGroup
	draining atomic.Bool
	drained  chan struct{} // closed when drain completes
	drainOne sync.Once

	manifest *runner.Manifest
}

// suiteEntry is one scale's resident state: the shared experiments.Suite
// (prepare/compile/base-sim/ccr-sim/limit/digest caches over the benchmark
// set) plus a service-side cache for CCR oracle digests, which the suite
// deliberately does not cache (its verify sweep wants each point checked
// fresh) but a server hammered with identical digest requests does.
type suiteEntry struct {
	scale      workloads.Scale
	suite      *experiments.Suite
	ccrDigests *runner.Cache
}

// NewServer builds a daemon with empty caches.
func NewServer(cfg Config) *Server {
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	b := buildinfo.Get()
	if cfg.build != nil {
		b = *cfg.build
	}
	s := &Server{
		cfg:     cfg,
		log:     log,
		build:   b,
		start:   time.Now(),
		suites:  map[string]*suiteEntry{},
		conns:   map[*srvConn]struct{}{},
		reqs:    map[string]int64{},
		totals:  map[string]*ReuseTotals{},
		active:  map[uint64]activeEntry{},
		drained: make(chan struct{}),
	}
	if cfg.ManifestPath != "" {
		s.manifest = runner.NewManifest("ccrd", cfg.Jobs)
	}
	return s
}

// ParseAddr maps a CLI -addr value onto a (network, address) pair:
//
//	unix:/path/to.sock   explicit unix socket
//	tcp:host:port        explicit TCP
//	/path or ./path      unix socket (contains a path separator)
//	host:port            TCP
//
// Anything else is an error — the CLIs turn it into exit status 2.
func ParseAddr(s string) (network, addr string, err error) {
	switch {
	case s == "":
		return "", "", errors.New("serve: empty address")
	case strings.HasPrefix(s, "unix:"):
		p := strings.TrimPrefix(s, "unix:")
		if p == "" {
			return "", "", errors.New("serve: unix: address missing socket path")
		}
		return "unix", p, nil
	case strings.HasPrefix(s, "tcp:"):
		p := strings.TrimPrefix(s, "tcp:")
		if _, _, err := net.SplitHostPort(p); err != nil {
			return "", "", fmt.Errorf("serve: malformed tcp address %q: %w", p, err)
		}
		return "tcp", p, nil
	case strings.ContainsAny(s, "/\\"):
		return "unix", s, nil
	default:
		if _, _, err := net.SplitHostPort(s); err != nil {
			return "", "", fmt.Errorf("serve: address %q is neither host:port nor a socket path: %w", s, err)
		}
		return "tcp", s, nil
	}
}

// Listen opens the listener for addr (see ParseAddr). A stale unix socket
// file from a dead daemon is removed iff nothing is accepting on it.
func Listen(addrSpec string) (net.Listener, error) {
	network, addr, err := ParseAddr(addrSpec)
	if err != nil {
		return nil, err
	}
	if network == "unix" {
		if c, err := net.DialTimeout("unix", addr, 100*time.Millisecond); err == nil {
			c.Close()
			return nil, fmt.Errorf("serve: %s: another daemon is already listening", addr)
		}
		os.Remove(addr)
	}
	return net.Listen(network, addr)
}

// Serve accepts connections on ln until Drain (or a listener error). It
// returns after the accept loop stops; in-flight requests may still be
// completing — Wait for full drain.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		if s.draining.Load() {
			nc.Close()
			continue
		}
		c := &srvConn{srv: s, nc: nc, codec: wire.NewCodec(nc)}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connN.Add(1)
		go c.run()
	}
}

// HandleSignals installs the graceful-drain handler: the first SIGTERM or
// SIGINT initiates Drain, a second one force-exits.
func (s *Server) HandleSignals(sigs ...os.Signal) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, sigs...)
	go func() {
		<-ch
		s.log.Info("ccrd: signal received, draining")
		s.Drain()
		<-ch
		s.log.Warn("ccrd: second signal, exiting immediately")
		os.Exit(1)
	}()
}

// Drain initiates graceful shutdown: the listener closes (no new
// connections), idle connections are closed, busy connections finish their
// in-flight request, send its response and close, and the run manifest is
// flushed. Drain returns immediately; Wait blocks until completion.
func (s *Server) Drain() {
	s.drainOne.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		ln := s.ln
		conns := make([]*srvConn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, c := range conns {
			c.closeIfIdle()
		}
		go func() {
			s.reqWG.Wait()
			// Whatever is left is idle now; close it so connection
			// goroutines unblock from Read.
			s.mu.Lock()
			for c := range s.conns {
				c.nc.Close()
			}
			s.mu.Unlock()
			s.flushManifest()
			close(s.drained)
		}()
	})
}

// Wait blocks until a started Drain has completed: every in-flight request
// answered, every connection closed, manifests flushed.
func (s *Server) Wait() { <-s.drained }

func (s *Server) flushManifest() {
	if s.cfg.ManifestPath == "" {
		return
	}
	s.mu.Lock()
	for name, e := range s.suites {
		for cache, st := range e.suite.CacheStats() {
			s.manifest.SetCache(name+"/"+cache, st)
		}
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		s.manifest.SetStore(s.cfg.Store.Stats())
	}
	s.manifest.Finish()
	if err := s.manifest.WriteFile(s.cfg.ManifestPath); err != nil {
		s.log.Error("ccrd: manifest flush failed", "err", err)
		return
	}
	s.log.Info("ccrd: manifest flushed", "path", s.cfg.ManifestPath)
}

// countReq bumps the per-op request counter.
func (s *Server) countReq(op string) {
	s.reqMu.Lock()
	s.reqs[op]++
	s.reqMu.Unlock()
}

// entry returns (creating on first use) the resident suite for a scale.
func (s *Server) entry(scale string) (*suiteEntry, error) {
	sc, err := workloads.ParseScale(scaleName(scale))
	if err != nil {
		return nil, err
	}
	name := scaleName(scale)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.suites[name]; ok {
		return e, nil
	}
	scfg := suiteConfig(sc, s.cfg.Jobs)
	scfg.Store = s.cfg.Store
	e := &suiteEntry{
		scale:      sc,
		suite:      experiments.NewSuite(scfg),
		ccrDigests: runner.NewCache(),
	}
	s.suites[name] = e
	return e, nil
}

// pool builds a per-request pool over the shared manifest (none without
// Config.ManifestPath), with an optional progress sink for streaming
// requests.
func (s *Server) pool(jobs int, sink runner.ProgressSink, heartbeatMS int) runner.Pool {
	if jobs <= 0 {
		jobs = s.cfg.Jobs
	}
	p := runner.Pool{Jobs: jobs, Manifest: s.manifest}
	if sink != nil {
		hb := time.Duration(heartbeatMS) * time.Millisecond
		if hb <= 0 {
			hb = 500 * time.Millisecond
		}
		if hb < 10*time.Millisecond {
			hb = 10 * time.Millisecond
		}
		p.Heartbeat = hb
		p.Sink = sink
	}
	return p
}

// srvConn is one client connection.
type srvConn struct {
	srv   *Server
	nc    net.Conn
	codec *wire.Codec
	busy  atomic.Bool
}

// closeIfIdle closes the connection unless a request is in flight; a busy
// connection instead closes itself after responding (run checks Draining).
func (c *srvConn) closeIfIdle() {
	if !c.busy.Load() {
		c.nc.Close()
	}
}

func (c *srvConn) run() {
	defer func() {
		c.nc.Close()
		s := c.srv
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connN.Add(-1)
	}()
	if !c.handshake() {
		return
	}
	for {
		m, err := c.codec.Read()
		if err != nil {
			return // disconnect or malformed frame; the conn is done
		}
		c.busy.Store(true)
		c.srv.inflight.Add(1)
		c.srv.reqWG.Add(1)
		c.handle(m)
		c.srv.reqWG.Done()
		c.srv.inflight.Add(-1)
		c.busy.Store(false)
		if c.srv.draining.Load() {
			return
		}
	}
}

// handshake performs the hello exchange: the client speaks first, the
// server echoes its own identity. A protocol-generation mismatch is
// refused server-side; build-identity policy is the client's call.
func (c *srvConn) handshake() bool {
	m, err := c.codec.Read()
	if err != nil || m.Type != wire.TypeHello {
		c.codec.WriteError(m.ID, errors.New("serve: expected hello frame"))
		return false
	}
	var h Hello
	if err := m.Decode(&h); err != nil {
		c.codec.WriteError(m.ID, err)
		return false
	}
	if err := c.codec.Write(wire.TypeHello, "", m.ID, Hello{
		Proto: wire.ProtoVersion, Build: c.srv.build,
	}); err != nil {
		return false
	}
	if h.Proto != wire.ProtoVersion {
		c.codec.WriteError(m.ID, fmt.Errorf(
			"serve: protocol version %d unsupported (server speaks %d)", h.Proto, wire.ProtoVersion))
		return false
	}
	return true
}

// handle dispatches one request and always answers with exactly one
// result or error frame (plus progress frames for streaming requests).
// A panicking handler answers with the panic as an error — one poisoned
// request must not take the daemon down.
func (c *srvConn) handle(m wire.Msg) {
	if m.Type != wire.TypeRequest {
		c.codec.WriteError(m.ID, fmt.Errorf("serve: unexpected frame type %q", m.Type))
		return
	}
	s := c.srv
	s.countReq(m.Op)
	spanStart := s.cfg.Spans.Now()
	aid := s.trackActive(m.Op)
	failed := false
	// Registered before the recover defer so it runs after recovery and
	// observes panics as failures too.
	defer func() {
		s.untrackActive(aid)
		errMsg := ""
		if failed {
			errMsg = "error"
		}
		s.cfg.Spans.EmitPhase(m.Op, "serve", "", -1, spanStart, errMsg)
	}()
	defer func() {
		if r := recover(); r != nil {
			failed = true
			s.log.Error("ccrd: handler panic", "op", m.Op, "panic", r,
				"stack", string(debug.Stack()))
			c.codec.WriteError(m.ID, fmt.Errorf("serve: %s handler panicked: %v", m.Op, r))
		}
	}()
	var (
		resp any
		err  error
	)
	switch m.Op {
	case OpPing:
		var b PingBody
		if err = m.Decode(&b); err == nil {
			resp = b
		}
	case OpCompile:
		var req CompileReq
		if err = m.Decode(&req); err == nil {
			resp, err = s.doCompile(req)
		}
	case OpSimulate:
		var req SimulateReq
		if err = m.Decode(&req); err == nil {
			resp, err = s.doSimulate(req)
		}
	case OpBatch:
		var req BatchReq
		if err = m.Decode(&req); err == nil {
			resp, err = s.doBatch(req, c.progressSink(m.ID, req.Stream), req.HeartbeatMS)
		}
	case OpSweep:
		var req SweepReq
		if err = m.Decode(&req); err == nil {
			resp, err = s.doSweep(req, c.progressSink(m.ID, req.Stream))
		}
	case OpVerify:
		var req VerifyReq
		if err = m.Decode(&req); err == nil {
			resp, err = s.doVerify(req, c.progressSink(m.ID, req.Stream))
		}
	case OpPhases:
		var req PhasesReq
		if err = m.Decode(&req); err == nil {
			resp, err = s.doPhases(req)
		}
	case OpStats:
		resp = s.doStats()
	case OpTop:
		var req TopReq
		if err = m.Decode(&req); err == nil {
			resp, err = s.doTop(req, func(snap TopSnapshot) error {
				return c.codec.Write(wire.TypeProgress, "", m.ID, snap)
			})
		}
	case OpDrain:
		resp = DrainResp{Draining: true}
		// Answer first, then begin shutdown: the requester gets its ack.
		if werr := c.codec.Write(wire.TypeResult, m.Op, m.ID, resp); werr != nil {
			s.log.Warn("ccrd: drain ack failed", "err", werr)
		}
		s.Drain()
		return
	default:
		err = fmt.Errorf("serve: unknown operation %q", m.Op)
	}
	if err != nil {
		failed = true
		c.codec.WriteError(m.ID, err)
		return
	}
	if werr := c.codec.Write(wire.TypeResult, m.Op, m.ID, resp); werr != nil {
		s.log.Warn("ccrd: response write failed", "op", m.Op, "err", werr)
	}
}

// progressSink returns a sink writing progress frames for request id, or
// nil when the request did not ask to stream.
func (c *srvConn) progressSink(id uint64, stream bool) runner.ProgressSink {
	if !stream {
		return nil
	}
	return runner.ProgressFunc(func(p runner.Progress) {
		// Progress is best-effort; a failed write surfaces on the final
		// response write anyway.
		c.codec.Write(wire.TypeProgress, "", id, progressBody(p))
	})
}

// doCompile serves a compilation summary from the resident compile cache.
func (s *Server) doCompile(req CompileReq) (*CompileResp, error) {
	start := time.Now()
	e, b, err := s.bench(req.Scale, req.Bench)
	if err != nil {
		return nil, err
	}
	cr, err := e.suite.Compiled(b)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, rg := range cr.Prog.Regions {
		n += rg.StaticSize
	}
	return &CompileResp{
		Bench: b.Name, Regions: len(cr.Prog.Regions), RegionInstrs: n,
		TrainResult: cr.TrainResult, ServerNS: time.Since(start).Nanoseconds(),
	}, nil
}

// bench resolves (scale, name) onto the resident benchmark instance.
func (s *Server) bench(scale, name string) (*suiteEntry, *workloads.Benchmark, error) {
	e, err := s.entry(scale)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range e.suite.Benches {
		if b.Name == name {
			return e, b, nil
		}
	}
	return nil, nil, fmt.Errorf("serve: unknown benchmark %q (known: %s)",
		name, strings.Join(workloads.Names(), ", "))
}

// doSimulate executes one cell against the resident caches.
func (s *Server) doSimulate(req SimulateReq) (*SimulateResp, error) {
	start := time.Now()
	e, b, err := s.bench(req.Scale, req.Bench)
	if err != nil {
		return nil, err
	}
	args, dsName, err := datasetArgs(b, req.Dataset)
	if err != nil {
		return nil, err
	}
	rc, err := reuseConfig(req)
	if err != nil {
		return nil, err
	}
	resp := &SimulateResp{Bench: b.Name, Dataset: dsName, Config: "base"}
	if !req.Base {
		resp.Config = rc.Key()
	}

	if !req.NoTiming {
		var sim *core.SimResult
		if req.Base {
			sim, err = e.suite.BaseSim(b, args)
		} else {
			sim, err = e.suite.ReuseSim(b, args, rc)
		}
		if err != nil {
			return nil, err
		}
		scheme := "base"
		if !req.Base {
			scheme = string(rc.Scheme)
		}
		s.recordSim(scheme, sim)
		resp.Result = sim.Result
		resp.Cycles = sim.Cycles
		resp.Emu = EmuStats{
			DynInstrs: sim.Emu.DynInstrs, ReuseHits: sim.Emu.ReuseHits,
			ReuseMisses: sim.Emu.ReuseMisses, ReusedInstrs: sim.Emu.ReusedInstrs,
			DTMHits: sim.Emu.DTMHits, DTMReusedInstrs: sim.Emu.DTMReusedInstrs,
			MemoAborts: sim.Emu.MemoAborts, Invalidations: sim.Emu.Invalidations,
		}
		resp.CRB = sim.CRB
		resp.DTM = sim.DTM
	}
	if req.Digest || req.NoTiming {
		d, err := s.cellDigest(e, b, args, dsName, req.Base, rc)
		if err != nil {
			return nil, err
		}
		resp.Digest = &d
		if req.NoTiming {
			resp.Result = d.Result
			resp.Emu.DynInstrs = d.DynInstrs
		}
	}
	resp.ServerNS = time.Since(start).Nanoseconds()
	return resp, nil
}

// cellDigest returns the cell's functional oracle digest: the suite's
// cached base digest for baseline cells, or the server-cached scheme-run
// digest keyed by the full scheme key.
func (s *Server) cellDigest(e *suiteEntry, b *workloads.Benchmark,
	args []int64, dsName string, base bool, rc reuse.Config) (oracle.Digest, error) {
	if base {
		return e.suite.BaseDigest(b, args)
	}
	key := b.Name + "|" + dsName + "|" + rc.Key()
	v, err := e.ccrDigests.Do(key, func() (any, error) {
		d, err := e.suite.ReuseDigest(b, args, rc)
		if err != nil {
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return oracle.Digest{}, err
	}
	return v.(oracle.Digest), nil
}

// doBatch fans the cells out on a per-request pool; every cell reads (and
// warms) the shared resident caches.
func (s *Server) doBatch(req BatchReq, sink runner.ProgressSink, heartbeatMS int) (*BatchResp, error) {
	if len(req.Cells) == 0 {
		return nil, errors.New("serve: batch with no cells")
	}
	start := time.Now()
	pool := s.pool(req.Jobs, sink, heartbeatMS)
	out := make([]BatchCell, len(req.Cells))
	cells := make([]runner.Cell, len(req.Cells))
	for i := range req.Cells {
		i := i
		creq := req.Cells[i]
		cells[i] = runner.Cell{
			ID: "batch/" + simKey(creq),
			Do: func(context.Context) error {
				r, err := s.doSimulate(creq)
				if err != nil {
					return err
				}
				out[i].SimulateResp = *r
				return nil
			},
		}
	}
	results := pool.Run(context.Background(), cells)
	failed := 0
	for i := range results {
		if results[i].Err != nil {
			out[i].Err = results[i].Err.Error()
			failed++
		}
	}
	return &BatchResp{
		Results: out, Failed: failed, Jobs: pool.Jobs,
		WallSeconds: time.Since(start).Seconds(),
	}, nil
}

// doSweep runs the standard geometry grid over every benchmark × dataset.
func (s *Server) doSweep(req SweepReq, sink runner.ProgressSink) (*SweepResp, error) {
	start := time.Now()
	e, err := s.entry(req.Scale)
	if err != nil {
		return nil, err
	}
	view := e.suite.WithPool(s.pool(req.Jobs, sink, req.HeartbeatMS))
	points := experiments.VerifySweepPoints(view)
	datasets := []string{"train", "ref"}
	benches := view.Benches
	n := len(benches) * len(datasets) * len(points)
	rows := make([]SweepRow, n)
	decode := func(i int) (int, int, int) {
		np := len(points)
		return i / (len(datasets) * np), (i / np) % len(datasets), i % np
	}
	errs := view.MapErrs(n,
		func(i int) string {
			bi, di, pi := decode(i)
			return fmt.Sprintf("sweep/%s/%s/%s", benches[bi].Name, datasets[di], points[pi].Label)
		},
		func(i int) error {
			bi, di, pi := decode(i)
			b := benches[bi]
			args := b.Train
			if datasets[di] == "ref" {
				args = b.Ref
			}
			sp, err := view.SpeedupPoint(b, args, points[pi].Reuse)
			if err != nil {
				return err
			}
			rows[i] = SweepRow{Bench: b.Name, Dataset: datasets[di],
				Config: points[pi].Reuse.Key(), Speedup: sp}
			return nil
		})
	failed := 0
	for i := range errs {
		if errs[i] != nil {
			bi, di, pi := decode(i)
			rows[i] = SweepRow{Bench: benches[bi].Name, Dataset: datasets[di],
				Config: points[pi].Reuse.Key(), Err: errs[i].Error()}
			failed++
		}
	}
	return &SweepResp{Rows: rows, Failed: failed, WallSeconds: time.Since(start).Seconds()}, nil
}

// doVerify runs the transparency-verification sweep — the same
// experiments.Verify the CLI's -verify flag runs, on the resident caches.
func (s *Server) doVerify(req VerifyReq, sink runner.ProgressSink) (*VerifyResp, error) {
	start := time.Now()
	e, err := s.entry(req.Scale)
	if err != nil {
		return nil, err
	}
	view := e.suite.WithPool(s.pool(req.Jobs, sink, req.HeartbeatMS))
	v, err := experiments.Verify(view)
	if err != nil {
		return nil, err
	}
	return &VerifyResp{
		Checked: v.Checked, Rows: v.Rows,
		WallSeconds: time.Since(start).Seconds(),
	}, nil
}

// doPhases runs the warm-buffer train→ref study of one benchmark.
func (s *Server) doPhases(req PhasesReq) (*PhasesResp, error) {
	e, b, err := s.bench(req.Scale, req.Bench)
	if err != nil {
		return nil, err
	}
	cfg := crb.DefaultConfig()
	if req.CRB != nil {
		cfg = req.CRB.Config()
	}
	r, err := experiments.TrainRefPhases(e.suite, b, cfg)
	if err != nil {
		return nil, err
	}
	return &PhasesResp{Bench: r.Bench, Phases: r.Phases}, nil
}

// doStats snapshots the daemon's counters.
func (s *Server) doStats() *StatsResp {
	resp := &StatsResp{
		Build:         s.build,
		Proto:         wire.ProtoVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      map[string]int64{},
		InFlight:      s.inflight.Load(),
		Conns:         s.connN.Load(),
		Draining:      s.draining.Load(),
		Suites:        map[string]SuiteStats{},
	}
	s.reqMu.Lock()
	for op, n := range s.reqs {
		resp.Requests[op] = n
	}
	s.reqMu.Unlock()
	s.mu.Lock()
	for name, e := range s.suites {
		caches := e.suite.CacheStats()
		caches["ccr_digest"] = e.ccrDigests.Stats()
		resp.Suites[name] = SuiteStats{Benches: len(e.suite.Benches), Caches: caches}
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		resp.Store = &st
	}
	resp.Reuse = s.reuseSnapshot()
	return resp
}
