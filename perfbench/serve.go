package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccr/internal/oracle"
	"ccr/internal/serve"
	"ccr/internal/serve/wire"
	"ccr/internal/workloads"
)

// serve drives an in-process ccrd (serve.NewServer on a unix socket) with
// one closed-loop client per CPU: each sends its next request only after
// the previous reply. Set-up starts the daemon, dials the clients and
// compiles every benchmark; the measured phase is the request stream.

// sreq is one request of a client's stream.
type sreq struct {
	class string // timed, digest, dtm or repeat
	req   serve.SimulateReq
}

// serveStreams draws each client's stream of n/clients tiny-scale
// requests from the seed: 60% timed CCR simulations on fresh CRB
// geometries, 20% digest-only (NoTiming) requests on fresh geometries,
// 10% timed DTM simulations on fresh trace geometries, and 10% repeats of
// an earlier request of the same stream, which hit the daemon's caches.
// Within each class the benchmarks and datasets are dealt round-robin, so
// the seed moves the order and the geometries but hardly the total work.
func serveStreams(seed int64, n, clients int, benches []string) [][]sreq {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	streams := make([][]sreq, clients)
	per := n / clients
	for ci := range streams {
		repeats := per / 10
		fresh := per - repeats
		var list []sreq
		for _, cls := range []struct {
			name  string
			count int
		}{{"timed", fresh * 6 / 9}, {"digest", fresh*8/9 - fresh*6/9}, {"dtm", fresh - fresh*8/9}} {
			off := rng.Intn(len(benches))
			for j := 0; j < cls.count; j++ {
				bench := benches[(off+j)%len(benches)]
				dataset := []string{"train", "ref"}[(ci+j/len(benches))%2]
				for {
					r := drawRequest(rng, cls.name, bench, dataset)
					k := fmt.Sprintf("%s|%s|%s|%v|%v", r.Bench, r.Dataset, r.Scheme, r.CRB, r.DTM)
					if !seen[k] {
						seen[k] = true
						list = append(list, sreq{class: cls.name, req: r})
						break
					}
				}
			}
		}
		rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		for k := 0; k < repeats; k++ {
			pos := 1 + rng.Intn(len(list))
			rep := sreq{class: "repeat", req: list[rng.Intn(pos)].req}
			list = append(list[:pos], append([]sreq{rep}, list[pos:]...)...)
		}
		streams[ci] = list
	}
	return streams
}

func drawRequest(rng *rand.Rand, class, bench, dataset string) serve.SimulateReq {
	r := serve.SimulateReq{Bench: bench, Scale: "tiny", Dataset: dataset}
	if class == "dtm" {
		r.Scheme = "dtm"
		r.DTM = &serve.DTMGeom{
			Entries:   []int{64, 128, 256, 512}[rng.Intn(4)],
			Instances: []int{1, 2, 4, 8}[rng.Intn(4)],
			Assoc:     []int{1, 2, 4}[rng.Intn(3)],
			MinRun:    2 + rng.Intn(4),
		}
		return r
	}
	r.Scheme = "ccr"
	r.CRB = &serve.CRBGeom{
		Entries:   []int{16, 32, 64, 128, 256}[rng.Intn(5)],
		Instances: 1 + rng.Intn(16),
		Assoc:     []int{1, 2, 4}[rng.Intn(3)],
	}
	if class == "digest" {
		r.Digest, r.NoTiming = true, true
	}
	return r
}

// serveRig is a running daemon and its dialled clients.
type serveRig struct {
	srv     *serve.Server
	served  chan error
	clients []*serve.Client
}

// startServe starts the daemon, dials one client per job and compiles
// every benchmark, spread across the clients.
func startServe(e *env, dir string, tr *tracer, parent int) (*serveRig, error) {
	addr := "unix:" + filepath.Join(dir, "d.sock")
	ln, err := serve.Listen(addr)
	if err != nil {
		return nil, err
	}
	r := &serveRig{srv: serve.NewServer(serve.Config{Jobs: e.jobs, Logger: quietLog()}), served: make(chan error, 1)}
	go func() { r.served <- r.srv.Serve(ln) }()
	for i := 0; i < e.jobs; i++ {
		cl, err := serve.Dial(addr, serve.DialOptions{})
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	benches := pick(workloads.All(workloads.Tiny), e.benches)
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for ci, cl := range r.clients {
		wg.Add(1)
		go func(ci int, cl *serve.Client) {
			defer wg.Done()
			for i := ci; i < len(benches) && errs[ci] == nil; i += len(r.clients) {
				errs[ci] = tr.do(parent, "serve.request", "compile", benches[i].Name, func(int) error {
					_, err := cl.Compile(serve.CompileReq{Bench: benches[i].Name, Scale: "tiny"})
					return err
				})
			}
		}(ci, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *serveRig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.srv.Drain()
	r.srv.Wait()
	<-r.served
}

// reply is one answered request as the client saw it.
type reply struct {
	class    string
	clientNS int64
	resp     *serve.SimulateResp
	codecNS  int64
	bytes    int
}

// traffic runs every client's stream concurrently and checks each reply.
// With a tracer it records a span per request and one per replay of the
// request and reply through the wire codec.
func traffic(r *serveRig, streams [][]sreq, c *checks, tr *tracer, parent int) ([]reply, error) {
	out := make([][]reply, len(streams))
	cks := make([]checks, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for ci := range streams {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := r.clients[ci]
			for i, q := range streams[ci] {
				id := fmt.Sprintf("c%d/%d", ci, i)
				var resp *serve.SimulateResp
				t := time.Now()
				err := tr.do(parent, "serve.request", q.class, id, func(int) error {
					var err error
					resp, err = cl.Simulate(q.req)
					return err
				})
				rep := reply{class: q.class, clientNS: int64(time.Since(t)), resp: resp}
				if err != nil {
					errs[ci] = fmt.Errorf("request %s: %w", id, err)
					return
				}
				checkReply(&cks[ci], q, resp)
				if tr != nil {
					if err := codecReplay(tr, parent, id, q.req, resp, &rep); err != nil {
						errs[ci] = err
						return
					}
				}
				out[ci] = append(out[ci], rep)
			}
		}(ci)
	}
	wg.Wait()
	var all []reply
	for ci := range streams {
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		c.add(cks[ci])
		all = append(all, out[ci]...)
	}
	return all, nil
}

// checkReply checks a reply against the reference base run of its cell:
// the architectural result always, the full digest under oracle.Compare
// when the request asked for one.
func checkReply(c *checks, q sreq, resp *serve.SimulateResp) {
	base, ok := refs.base[q.req.Bench+"/"+q.req.Dataset]
	c.check(ok && resp.Result == base.Result, "serve %s %s/%s: result %d, base %d",
		q.class, q.req.Bench, q.req.Dataset, resp.Result, base.Result)
	if q.req.Digest {
		var err error = fmt.Errorf("no digest in reply")
		if resp.Digest != nil {
			err = oracle.Compare(base, *resp.Digest)
		}
		c.check(err == nil, "serve digest %s/%s: %v", q.req.Bench, q.req.Dataset, err)
	} else {
		c.check(resp.Cycles > 0, "serve timed %s/%s: no cycles", q.req.Bench, q.req.Dataset)
	}
}

// codecReplay encodes a request and its reply through a wire.Codec and
// decodes them back, timing the codec and counting the frame bytes.
func codecReplay(tr *tracer, parent int, id string, req serve.SimulateReq, resp *serve.SimulateResp, rep *reply) error {
	var buf bytes.Buffer
	cd := wire.NewCodec(&buf)
	t := time.Now()
	err := tr.do(parent, "wire", "codec", id, func(int) error {
		if err := cd.Write(wire.TypeRequest, serve.OpSimulate, 1, req); err != nil {
			return err
		}
		if err := cd.Write(wire.TypeResult, serve.OpSimulate, 1, resp); err != nil {
			return err
		}
		rep.bytes = buf.Len()
		var q serve.SimulateReq
		var p serve.SimulateResp
		for _, v := range []any{&q, &p} {
			m, err := cd.Read()
			if err != nil {
				return err
			}
			if err := m.Decode(v); err != nil {
				return err
			}
		}
		return nil
	})
	rep.codecNS = int64(time.Since(t))
	return err
}

func serveIterate(e *env, c *checks) (iteration, error) {
	var it iteration
	dir, err := os.MkdirTemp(e.tmp, "serve-")
	if err != nil {
		return it, err
	}
	defer os.RemoveAll(dir)
	streams := serveStreams(streamSeed(e), e.requests, e.jobs, benchNames(e))
	pt := startTimer()
	r, err := startServe(e, dir, nil, 0)
	if err != nil {
		return it, err
	}
	defer r.close()
	it.setup = pt.measured()
	if e.setupOnly {
		return it, nil
	}
	replies, err := traffic(r, streams, c, nil, 0)
	if err != nil {
		return it, err
	}
	it.work = time.Since(pt.phase)
	pt.done(&it)
	for _, rep := range replies {
		it.ops = append(it.ops, float64(rep.clientNS)/1e6)
	}
	return it, nil
}

// streamSeed derives iteration e.iter's stream from the run's seed, so a
// run's median spans several streams; the traced run replays stream 0.
func streamSeed(e *env) int64 { return e.seed*1000003 + int64(e.iter) }

func benchNames(e *env) []string {
	var names []string
	for _, b := range pick(workloads.All(workloads.Tiny), e.benches) {
		names = append(names, b.Name)
	}
	return names
}

// cacheCounts sums the hits and misses of every resident suite cache.
func cacheCounts(cl *serve.Client) (hits, misses int64, err error) {
	st, err := cl.Stats()
	if err != nil {
		return 0, 0, err
	}
	for _, s := range st.Suites {
		for _, cs := range s.Caches {
			hits, misses = hits+cs.Hits, misses+cs.Misses
		}
	}
	return hits, misses, nil
}

func serveTraced(e *env, c *checks, out map[string]float64) ([]span, time.Duration, error) {
	dir, err := os.MkdirTemp(e.tmp, "serve-traced-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	streams := serveStreams(streamSeed(e), e.requests, e.jobs, benchNames(e))
	tr := newTracer()
	start := time.Now()
	setup := tr.begin(0, "phase", "setup", "")
	r, err := startServe(e, dir, tr, setup)
	tr.end(setup)
	if err != nil {
		return nil, 0, err
	}
	defer r.close()
	h0, m0, err := cacheCounts(r.clients[0])
	if err != nil {
		return nil, 0, err
	}
	ph := tr.begin(0, "phase", "traffic", "")
	replies, err := traffic(r, streams, c, tr, ph)
	tr.end(ph)
	if err != nil {
		return nil, 0, err
	}
	wall := time.Since(start)
	h1, m1, err := cacheCounts(r.clients[0])
	if err != nil {
		return nil, 0, err
	}

	var server, overhead []float64
	var simNS, digestNS, codecNS, cycles, instrs, crbL, crbH, dtmL, dtmH, digests int64
	var wireBytes int
	for _, rep := range replies {
		p := rep.resp
		server = append(server, float64(p.ServerNS)/1e6)
		overhead = append(overhead, float64(rep.clientNS-p.ServerNS)/1e6)
		codecNS += rep.codecNS
		wireBytes += rep.bytes
		switch rep.class {
		case "digest":
			digestNS += p.ServerNS
			digests++
		case "timed", "dtm":
			simNS += p.ServerNS
			cycles += p.Cycles
			instrs += p.Emu.DynInstrs
			if p.CRB != nil {
				crbL, crbH = crbL+p.CRB.Lookups, crbH+p.CRB.Hits
			}
			if p.DTM != nil {
				dtmL, dtmH = dtmL+p.DTM.Lookups, dtmH+p.DTM.Hits
			}
		}
	}
	n := float64(len(replies))
	out["serve.server_ms"] = median(server)
	out["serve.overhead_ms"] = median(overhead)
	out["serve.cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	out["wire.codec_us"] = ratio(float64(codecNS)/1e3, n)
	out["wire.bytes_per_req"] = ratio(float64(wireBytes), n)
	out["uarch.sim_s"] = float64(simNS) / 1e9
	out["uarch.mips"] = ratio(float64(instrs)/1e6, float64(simNS)/1e9)
	out["uarch.cycles"] = float64(cycles)
	out["crb.lookups"] = float64(crbL)
	out["crb.hit_ratio"] = ratio(float64(crbH), float64(crbL))
	out["reuse.dtm_lookups"] = float64(dtmL)
	out["reuse.dtm_hit_ratio"] = ratio(float64(dtmH), float64(dtmL))
	out["oracle.digest_s"] = float64(digestNS) / 1e9
	out["oracle.digests"] = float64(digests)

	spans, err := tr.snapshot()
	return spans, wall, err
}
