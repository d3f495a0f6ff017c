package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ccr/internal/buildinfo"
	"ccr/internal/core"
	"ccr/internal/crb"
	"ccr/internal/experiments"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/runner"
	"ccr/internal/serve/wire"
	"ccr/internal/workloads"
)

// startServer brings a daemon up on a fresh unix socket and tears it down
// (graceful drain) with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "ccrd.sock")
	srv := NewServer(cfg)
	ln, err := Listen("unix:" + sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Drain()
		srv.Wait()
	})
	return srv, "unix:" + sock
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestPingAndStats(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 2})
	cl := dial(t, addr)
	if err := cl.Ping(42); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Proto != wire.ProtoVersion {
		t.Errorf("Proto = %d, want %d", st.Proto, wire.ProtoVersion)
	}
	if st.Requests[OpPing] != 1 {
		t.Errorf("ping count = %d, want 1", st.Requests[OpPing])
	}
	if st.Conns != 1 {
		t.Errorf("Conns = %d, want 1", st.Conns)
	}
	if st.Draining {
		t.Error("fresh server reports draining")
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	other := buildinfo.Info{Module: "ccr", GoVersion: "go1.22", Revision: "deadbeef"}
	_, addr := startServer(t, Config{build: &other})

	// Default policy: refuse a server from a different build.
	if _, err := Dial(addr, DialOptions{}); err == nil {
		t.Fatal("Dial accepted a version-mismatched server")
	} else if !IsVersionMismatch(err) {
		t.Fatalf("mismatch error = %v, want ErrVersionMismatch", err)
	}

	// -force overrides.
	cl, err := Dial(addr, DialOptions{Force: true})
	if err != nil {
		t.Fatalf("forced dial failed: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(1); err != nil {
		t.Fatal(err)
	}
	if cl.ServerBuild().Revision != "deadbeef" {
		t.Errorf("ServerBuild = %+v", cl.ServerBuild())
	}
}

func TestCompileAndSimulateMatchInProcess(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 2})
	cl := dial(t, addr)

	const bench, scale = "compress", "tiny"
	comp, err := cl.Compile(CompileReq{Bench: bench, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Regions == 0 {
		t.Error("compile reports no regions")
	}

	// In-process reference: the single-shot CLI path.
	b := workloads.Load(bench, workloads.Tiny)
	opts := core.DefaultOptions()
	cr, err := core.Compile(b.Prog, b.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Regions != len(cr.Prog.Regions) || comp.TrainResult != cr.TrainResult {
		t.Errorf("compile diverged: daemon %+v, local regions=%d train=%d",
			comp, len(cr.Prog.Regions), cr.TrainResult)
	}

	wantBase, err := core.Simulate(b.Prog, nil, opts.Uarch, b.Ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantCCR, err := core.Simulate(cr.Prog, &opts.CRB, opts.Uarch, b.Ref, 0)
	if err != nil {
		t.Fatal(err)
	}

	gotBase, err := cl.Simulate(SimulateReq{Bench: bench, Scale: scale, Dataset: "ref", Base: true})
	if err != nil {
		t.Fatal(err)
	}
	gotCCR, err := cl.Simulate(SimulateReq{Bench: bench, Scale: scale, Dataset: "ref"})
	if err != nil {
		t.Fatal(err)
	}
	if gotBase.Result != wantBase.Result || gotBase.Cycles != wantBase.Cycles {
		t.Errorf("base run diverged: daemon (%d, %d cyc), local (%d, %d cyc)",
			gotBase.Result, gotBase.Cycles, wantBase.Result, wantBase.Cycles)
	}
	if gotCCR.Result != wantCCR.Result || gotCCR.Cycles != wantCCR.Cycles {
		t.Errorf("ccr run diverged: daemon (%d, %d cyc), local (%d, %d cyc)",
			gotCCR.Result, gotCCR.Cycles, wantCCR.Result, wantCCR.Cycles)
	}
	if gotCCR.Emu.ReuseHits != wantCCR.Emu.ReuseHits ||
		gotCCR.Emu.ReusedInstrs != wantCCR.Emu.ReusedInstrs {
		t.Errorf("ccr reuse stats diverged: daemon %+v, local hits=%d reused=%d",
			gotCCR.Emu, wantCCR.Emu.ReuseHits, wantCCR.Emu.ReusedInstrs)
	}
	if gotCCR.Config != reuse.CCR(opts.CRB).Key() {
		t.Errorf("Config = %q, want %q", gotCCR.Config, reuse.CCR(opts.CRB).Key())
	}
}

// TestConcurrentClientsByteIdentical is the oracle gate of the service: N
// parallel clients hammering overlapping (bench, dataset, config) digest
// requests must each receive exactly the digest an isolated in-process run
// computes — resident caches and request concurrency must be invisible.
func TestConcurrentClientsByteIdentical(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 4})

	benches := []string{"compress", "lex", "m88ksim"}
	datasets := []string{"train", "ref"}
	geoms := []*CRBGeom{nil, {Entries: 32, Instances: 4}}

	// In-process reference digests, computed independently per point.
	type point struct {
		bench, dataset string
		geom           *CRBGeom
	}
	var points []point
	want := map[string]oracle.Digest{}
	for _, bn := range benches {
		b := workloads.Load(bn, workloads.Tiny)
		opts := core.DefaultOptions()
		cr, err := core.Compile(b.Prog, b.Train, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range datasets {
			args := b.Train
			if ds == "ref" {
				args = b.Ref
			}
			for _, g := range geoms {
				cc := crb.DefaultConfig()
				if g != nil {
					cc = g.Config()
				}
				d, err := core.DigestRun(cr.Prog, &cc, args, 0)
				if err != nil {
					t.Fatal(err)
				}
				p := point{bench: bn, dataset: ds, geom: g}
				points = append(points, p)
				want[fmt.Sprintf("%s/%s/%s", bn, ds, reuse.CCR(cc).Key())] = d
			}
		}
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(points))
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(addr, DialOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			// Each client walks the points at a different phase so the
			// cache sees genuinely interleaved cold and warm requests.
			for i := range points {
				p := points[(i+w)%len(points)]
				resp, err := cl.Simulate(SimulateReq{
					Bench: p.bench, Scale: "tiny", Dataset: p.dataset,
					CRB: p.geom, Digest: true, NoTiming: true,
				})
				if err != nil {
					errs <- fmt.Errorf("client %d %s/%s: %w", w, p.bench, p.dataset, err)
					continue
				}
				key := fmt.Sprintf("%s/%s/%s", p.bench, p.dataset, resp.Config)
				wantD, ok := want[key]
				if !ok {
					errs <- fmt.Errorf("client %d: unexpected key %s", w, key)
					continue
				}
				if resp.Digest == nil || *resp.Digest != wantD {
					errs <- fmt.Errorf("client %d: digest diverged at %s:\n got %+v\nwant %+v",
						w, key, resp.Digest, wantD)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchEqualsSerial: one batch request must return exactly what the
// same cells return when issued one at a time.
func TestBatchEqualsSerial(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 4})
	cl := dial(t, addr)

	var cells []SimulateReq
	for _, bn := range []string{"compress", "lex"} {
		for _, ds := range []string{"train", "ref"} {
			cells = append(cells,
				SimulateReq{Bench: bn, Scale: "tiny", Dataset: ds, Base: true},
				SimulateReq{Bench: bn, Scale: "tiny", Dataset: ds},
				SimulateReq{Bench: bn, Scale: "tiny", Dataset: ds, CRB: &CRBGeom{Entries: 32, Instances: 4}})
		}
	}
	batch, err := cl.Batch(BatchReq{Cells: cells, Jobs: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(cells) {
		t.Fatalf("batch returned %d results for %d cells", len(batch.Results), len(cells))
	}
	if batch.Failed != 0 {
		t.Fatalf("batch reports %d failures: %+v", batch.Failed, batch.Results)
	}
	cl2 := dial(t, addr)
	for i, req := range cells {
		serial, err := cl2.Simulate(req)
		if err != nil {
			t.Fatalf("serial cell %d: %v", i, err)
		}
		got := batch.Results[i]
		if got.Result != serial.Result || got.Cycles != serial.Cycles ||
			got.Config != serial.Config || got.Emu != serial.Emu {
			t.Errorf("cell %d diverged:\nbatch  %+v\nserial %+v", i, got, serial)
		}
	}
}

// TestNoManifestHoldsNoCells: a daemon started without a manifest path
// must not accumulate cell records it will never write — over its whole
// lifetime that is an unbounded leak.
func TestNoManifestHoldsNoCells(t *testing.T) {
	srv, addr := startServer(t, Config{Jobs: 2})
	cl := dial(t, addr)
	batch, err := cl.Batch(BatchReq{Cells: []SimulateReq{
		{Bench: "compress", Scale: "tiny", Base: true},
		{Bench: "compress", Scale: "tiny"},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 0 {
		t.Fatalf("batch reports %d failures: %+v", batch.Failed, batch.Results)
	}
	if srv.manifest == nil {
		return
	}
	data, err := srv.manifest.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m runner.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 0 {
		t.Fatalf("server without a manifest path holds %d cell records", len(m.Cells))
	}
}

// TestBatchStreamingProgress: a streaming batch emits progress frames
// carrying the right cell total before the final result.
func TestBatchStreamingProgress(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 1})
	cl := dial(t, addr)
	var cells []SimulateReq
	for _, bn := range workloads.Names()[:6] {
		cells = append(cells, SimulateReq{Bench: bn, Scale: "tiny"})
	}
	var mu sync.Mutex
	var snaps []ProgressBody
	resp, err := cl.Batch(BatchReq{Cells: cells, Stream: true, HeartbeatMS: 10},
		func(p ProgressBody) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 0 {
		t.Fatalf("batch failed cells: %+v", resp)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) == 0 {
		t.Fatal("no progress frames from a streaming batch (cold compile of 6 benchmarks)")
	}
	for i, p := range snaps {
		if p.Total != len(cells) {
			t.Errorf("progress %d Total = %d, want %d", i, p.Total, len(cells))
		}
		if p.Done < 0 || p.Done > len(cells) {
			t.Errorf("progress %d Done = %d", i, p.Done)
		}
	}
}

// TestWarmCacheServesHits: a repeated identical request is answered from
// the resident caches — its cache's hit counter moves by exactly one and
// its miss counter not at all — for a timed cell, a CCR digest and a base
// digest, and the warm simulate reports a server-side latency below the
// cold one's.
func TestWarmCacheServesHits(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 2})
	cl := dial(t, addr)
	caches := func() map[string]runner.CacheStats {
		t.Helper()
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st.Suites["tiny"].Caches
	}
	// repeat issues req twice and returns both responses plus the named
	// cache's counters after the first and after the second request.
	repeat := func(req SimulateReq, cache string) (cold, warm *SimulateResp, before, after runner.CacheStats) {
		t.Helper()
		cold, err := cl.Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		before = caches()[cache]
		warm, err = cl.Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		return cold, warm, before, caches()[cache]
	}
	hitOnce := func(cache string, before, after runner.CacheStats) {
		t.Helper()
		if after.Hits != before.Hits+1 || after.Misses != before.Misses {
			t.Errorf("repeated request did not hit the %s cache once: %+v -> %+v", cache, before, after)
		}
	}

	req := SimulateReq{Bench: "m88ksim", Scale: "tiny", Dataset: "ref"}
	cold, warm, ccr1, ccr2 := repeat(req, "ccr_sim")
	if warm.Result != cold.Result || warm.Cycles != cold.Cycles {
		t.Errorf("warm response diverged from cold: %+v vs %+v", warm, cold)
	}
	hitOnce("ccr_sim", ccr1, ccr2)
	// The wall-clock warm/cold ratio is asserted loosely: the hit counters
	// above are the deterministic evidence of reuse.
	if warm.ServerNS > cold.ServerNS {
		t.Errorf("warm request slower than cold: %dns vs %dns", warm.ServerNS, cold.ServerNS)
	}

	for _, c := range []struct {
		req   SimulateReq
		cache string
	}{
		{SimulateReq{Bench: "compress", Scale: "tiny", Digest: true}, "ccr_digest"},
		{SimulateReq{Bench: "compress", Scale: "tiny", Base: true, Digest: true}, "digest"},
	} {
		cold, warm, before, after := repeat(c.req, c.cache)
		if cold.Digest == nil || warm.Digest == nil || *warm.Digest != *cold.Digest {
			t.Errorf("%s: warm digest diverged from cold: %+v vs %+v", c.cache, warm.Digest, cold.Digest)
		}
		hitOnce(c.cache, before, after)
	}
}

// TestSweepOverWire runs the speedup grid through the daemon: every row
// succeeds and its speedup equals, bit for bit, the speedup of the same
// cell in the committed tiny-scale verify reference.
func TestSweepOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("full speedup sweep in -short mode")
	}
	srv, addr := startServer(t, Config{Jobs: 4})
	cl := dial(t, addr)
	sw, err := cl.Sweep(SweepReq{Scale: "tiny"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Rows) != 364 || sw.Failed != 0 {
		t.Fatalf("sweep: %d rows, %d failed; want 364 rows, 0 failed", len(sw.Rows), sw.Failed)
	}

	raw, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "ref", "verify_tiny_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ref []struct {
		Cell string
		Out  struct{ Speedup float64 }
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]float64, len(ref))
	for _, r := range ref {
		want[r.Cell] = r.Out.Speedup
	}
	e, err := srv.entry("tiny")
	if err != nil {
		t.Fatal(err)
	}
	// A row names its point by reuse.Config.Key(); the reference names a
	// cell bench/dataset/scheme/label.
	cellOf := map[string]string{}
	for _, p := range experiments.VerifySweepPoints(e.suite) {
		cellOf[p.Reuse.Key()] = string(p.Reuse.Scheme) + "/" + p.Label
	}
	for _, r := range sw.Rows {
		pt, ok := cellOf[r.Config]
		if !ok {
			t.Errorf("row %s/%s: config %q is no verify sweep point", r.Bench, r.Dataset, r.Config)
			continue
		}
		id := r.Bench + "/" + r.Dataset + "/" + pt
		if sp, ok := want[id]; !ok || sp != r.Speedup {
			t.Errorf("%s: speedup %v over the wire, reference %v (present %v)", id, r.Speedup, sp, ok)
		}
	}
}

// TestVerifySweepOverWire runs the §3.1 transparency sweep through the
// daemon — the same sweep `ccrpaper -verify -strict` runs in-process —
// and requires zero failing points.
func TestVerifySweepOverWire(t *testing.T) {
	if testing.Short() {
		t.Skip("full verify sweep in -short mode")
	}
	_, addr := startServer(t, Config{Jobs: 4})
	cl := dial(t, addr)
	v, err := cl.Verify(VerifyReq{Scale: "tiny"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Checked == 0 {
		t.Fatal("verify checked no points")
	}
	if len(v.Rows) != 0 {
		t.Fatalf("transparency failed at %d points over the wire: %+v", len(v.Rows), v.Rows)
	}
}

// TestPhasesWarmBuffer: the phases endpoint keeps CRB state across the
// train→ref boundary within one request.
func TestPhasesWarmBuffer(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 2})
	cl := dial(t, addr)
	r, err := cl.Phases(PhasesReq{Bench: "m88ksim", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Phases[0].Name != "train" || r.Phases[1].Name != "ref" {
		t.Fatalf("phases = %q/%q", r.Phases[0].Name, r.Phases[1].Name)
	}
	if r.Phases[0].CRB.Lookups == 0 {
		t.Error("train phase saw no CRB lookups")
	}
}

// TestBadRequestsKeepDaemonAlive: unknown operations, malformed bodies and
// garbage frames hurt only their own connection.
func TestBadRequestsKeepDaemonAlive(t *testing.T) {
	_, addr := startServer(t, Config{Jobs: 1})
	cl := dial(t, addr)

	if err := cl.do("no-such-op", nil, nil, nil); err == nil {
		t.Error("unknown op did not error")
	}
	if _, err := cl.Simulate(SimulateReq{Bench: "nope", Scale: "tiny"}); err == nil {
		t.Error("unknown benchmark did not error")
	}
	if _, err := cl.Simulate(SimulateReq{Bench: "lex", Scale: "galactic"}); err == nil {
		t.Error("unknown scale did not error")
	}
	if _, err := cl.Simulate(SimulateReq{Bench: "lex", Scale: "tiny", Dataset: "validation"}); err == nil {
		t.Error("unknown dataset did not error")
	}
	// The same connection still works after errors…
	if err := cl.Ping(7); err != nil {
		t.Fatal(err)
	}
	// …and the daemon still accepts new ones.
	cl2 := dial(t, addr)
	if err := cl2.Ping(8); err != nil {
		t.Fatal(err)
	}
}

// TestDrainFinishesInFlight: a drain initiated mid-batch lets the batch
// finish and answer, refuses new connections, and Wait completes.
func TestDrainFinishesInFlight(t *testing.T) {
	srv, addr := startServer(t, Config{Jobs: 2})
	cl := dial(t, addr)

	var cells []SimulateReq
	for _, bn := range workloads.Names() {
		cells = append(cells, SimulateReq{Bench: bn, Scale: "tiny"})
	}
	type batchOut struct {
		resp *BatchResp
		err  error
	}
	done := make(chan batchOut, 1)
	go func() {
		resp, err := cl.Batch(BatchReq{Cells: cells}, nil)
		done <- batchOut{resp, err}
	}()

	// Give the batch a moment to be in flight, then drain.
	time.Sleep(50 * time.Millisecond)
	srv.Drain()

	out := <-done
	if out.err != nil {
		t.Fatalf("in-flight batch did not survive drain: %v", out.err)
	}
	if out.resp.Failed != 0 || len(out.resp.Results) != len(cells) {
		t.Fatalf("drained batch incomplete: failed=%d results=%d",
			out.resp.Failed, len(out.resp.Results))
	}

	srv.Wait()
	if _, err := Dial(addr, DialOptions{}); err == nil {
		t.Error("drained server accepted a new connection")
	}
}

// TestDrainViaClient: the drain op acks, then the server drains.
func TestDrainViaClient(t *testing.T) {
	srv, addr := startServer(t, Config{Jobs: 1})
	cl := dial(t, addr)
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	if !srv.draining.Load() {
		t.Error("server not draining after drain op")
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in, network, addr string
		bad               bool
	}{
		{in: "unix:/tmp/x.sock", network: "unix", addr: "/tmp/x.sock"},
		{in: "/tmp/x.sock", network: "unix", addr: "/tmp/x.sock"},
		{in: "./x.sock", network: "unix", addr: "./x.sock"},
		{in: "tcp:localhost:7777", network: "tcp", addr: "localhost:7777"},
		{in: "localhost:7777", network: "tcp", addr: "localhost:7777"},
		{in: "127.0.0.1:0", network: "tcp", addr: "127.0.0.1:0"},
		{in: "", bad: true},
		{in: "unix:", bad: true},
		{in: "tcp:nonsense", bad: true},
		{in: "justaword", bad: true},
	}
	for _, c := range cases {
		network, addr, err := ParseAddr(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseAddr(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || network != c.network || addr != c.addr {
			t.Errorf("ParseAddr(%q) = (%q, %q, %v), want (%q, %q)",
				c.in, network, addr, err, c.network, c.addr)
		}
	}
}

// TestTCPTransport: the same protocol works over TCP.
func TestTCPTransport(t *testing.T) {
	srv := NewServer(Config{Jobs: 1})
	ln, err := Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Drain(); srv.Wait() })
	cl, err := Dial("tcp:"+ln.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(99); err != nil {
		t.Fatal(err)
	}
}

// TestDialRetryWaitsForListener races DialRetry against a daemon that
// starts listening only after a delay — the spawned-daemon pattern every
// smoke script and ccrctl -connect-timeout depend on.
func TestDialRetryWaitsForListener(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "late.sock")
	addr := "unix:" + sock

	// Fail fast (no retry window): nobody is listening yet.
	if _, err := Dial(addr, DialOptions{}); err == nil {
		t.Fatal("Dial succeeded with no listener")
	} else if !IsDialError(err) {
		t.Fatalf("absent-listener error = %v, want DialError", err)
	}
	if _, err := DialRetry(addr, DialOptions{}, 0); err == nil {
		t.Fatal("DialRetry(total=0) succeeded with no listener")
	}

	srv := NewServer(Config{Jobs: 1})
	go func() {
		time.Sleep(150 * time.Millisecond)
		ln, err := Listen(addr)
		if err != nil {
			t.Error(err)
			return
		}
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Drain()
		srv.Wait()
	})

	cl, err := DialRetry(addr, DialOptions{}, 10*time.Second)
	if err != nil {
		t.Fatalf("DialRetry did not outwait the late listener: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(7); err != nil {
		t.Fatal(err)
	}
}

// TestDialRetryFailsFastOnHandshake: a reachable daemon that refuses the
// version handshake must not be retried — backoff cannot fix a build
// mismatch, so the error surfaces immediately and keeps its class.
func TestDialRetryFailsFastOnHandshake(t *testing.T) {
	other := buildinfo.Info{Module: "ccr", GoVersion: "go1.22", Revision: "deadbeef"}
	_, addr := startServer(t, Config{build: &other})

	start := time.Now()
	_, err := DialRetry(addr, DialOptions{}, 10*time.Second)
	if err == nil {
		t.Fatal("DialRetry accepted a version-mismatched server")
	}
	if !IsVersionMismatch(err) {
		t.Fatalf("error = %v, want ErrVersionMismatch", err)
	}
	if IsDialError(err) {
		t.Fatalf("handshake refusal classified as DialError: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("DialRetry burned %v retrying a permanent failure", elapsed)
	}
}
