package serve

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"ccr/internal/core"
	"ccr/internal/store"
)

// This file holds the daemon's always-on live state behind the stats/top
// ops: request counts, the active table and per-scheme reuse totals. It
// costs a few mutex-protected integer updates per request, never per
// instruction, and works on every daemon. The per-request span hook
// (handle, server.go) is nil-guarded and absent without -spans.

// recordSim folds one timed simulation into the per-scheme totals.
func (s *Server) recordSim(scheme string, sim *core.SimResult) {
	s.totalsMu.Lock()
	t := s.totals[scheme]
	if t == nil {
		t = &ReuseTotals{}
		s.totals[scheme] = t
	}
	t.Cells++
	t.DynInstrs += sim.Emu.DynInstrs
	t.ReuseHits += sim.Emu.ReuseHits
	t.ReuseMisses += sim.Emu.ReuseMisses
	t.ReusedInstrs += sim.Emu.ReusedInstrs
	t.Invalidations += sim.Emu.Invalidations
	t.DTMHits += sim.Emu.DTMHits
	t.DTMReusedInstrs += sim.Emu.DTMReusedInstrs
	if d := sim.DTM; d != nil {
		t.DTMLookups += d.Lookups
		t.DTMRecords += d.Records
		t.DTMInvalidates += d.Invalidates
	}
	t.DTMHeads += int64(len(sim.DTMHeads))
	s.totalsMu.Unlock()
}

// requestsSnapshot copies the per-op request counts.
func (s *Server) requestsSnapshot() map[string]int64 {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	out := make(map[string]int64, len(s.reqs))
	for op, n := range s.reqs {
		out[op] = n
	}
	return out
}

// storeSnapshot reports the artifact-store counters, or nil without a
// store.
func (s *Server) storeSnapshot() *store.Stats {
	if s.cfg.Store == nil {
		return nil
	}
	st := s.cfg.Store.Stats()
	return &st
}

// reuseSnapshot copies the per-scheme totals for a stats/top reply.
func (s *Server) reuseSnapshot() map[string]ReuseTotals {
	s.totalsMu.Lock()
	defer s.totalsMu.Unlock()
	if len(s.totals) == 0 {
		return nil
	}
	out := make(map[string]ReuseTotals, len(s.totals))
	for k, t := range s.totals {
		out[k] = *t
	}
	return out
}

// trackActive files one in-flight request in the live table and returns
// a handle for untrackActive.
func (s *Server) trackActive(op string) uint64 {
	s.activeMu.Lock()
	s.activeID++
	id := s.activeID
	s.active[id] = activeEntry{op: op, start: time.Now()}
	s.activeMu.Unlock()
	return id
}

func (s *Server) untrackActive(id uint64) {
	s.activeMu.Lock()
	delete(s.active, id)
	s.activeMu.Unlock()
}

type activeEntry struct {
	op    string
	start time.Time
}

// activeSnapshot lists in-flight requests, oldest first, capped at 32.
func (s *Server) activeSnapshot() []ActiveReq {
	now := time.Now()
	s.activeMu.Lock()
	entries := make([]activeEntry, 0, len(s.active))
	for _, e := range s.active {
		entries = append(entries, e)
	}
	s.activeMu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].start.Before(entries[j].start) })
	if len(entries) > 32 {
		entries = entries[:32]
	}
	out := make([]ActiveReq, len(entries))
	for i, e := range entries {
		out[i] = ActiveReq{Op: e.op, ElapsedMS: float64(now.Sub(e.start).Microseconds()) / 1e3}
	}
	return out
}

// suitesSnapshot copies every resident suite's cache stats.
func (s *Server) suitesSnapshot() map[string]SuiteStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.suites) == 0 {
		return nil
	}
	out := make(map[string]SuiteStats, len(s.suites))
	for name, e := range s.suites {
		caches := e.suite.CacheStats()
		caches["ccr_digest"] = e.ccrDigests.Stats()
		out[name] = SuiteStats{Benches: len(e.suite.Benches), Caches: caches}
	}
	return out
}

// topSnapshot assembles one live-status frame.
func (s *Server) topSnapshot() TopSnapshot {
	snap := TopSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Conns:         s.connN.Load(),
		InFlight:      s.inflight.Load(),
		Draining:      s.draining.Load(),
		Requests:      s.requestsSnapshot(),
		Active:        s.activeSnapshot(),
		Suites:        s.suitesSnapshot(),
		Store:         s.storeSnapshot(),
		Reuse:         s.reuseSnapshot(),
		Goroutines:    runtime.NumGoroutine(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.HeapBytes = ms.HeapAlloc
	return snap
}

// doTop streams periodic snapshots through emit until the requested
// count is reached, the client vanishes, or the daemon drains.
func (s *Server) doTop(req TopReq, emit func(TopSnapshot) error) (*TopResp, error) {
	interval := time.Duration(req.IntervalMS) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	count := req.Count
	if count == 0 {
		count = 1
	}
	if count < -1 {
		return nil, fmt.Errorf("serve: top count %d (want -1, 0 or a positive bound)", req.Count)
	}
	n := 0
	for {
		if err := emit(s.topSnapshot()); err != nil {
			break // client gone; the final write will fail too, and that's fine
		}
		n++
		if count > 0 && n >= count {
			break
		}
		// An unbounded top must not wedge a drain: sleep in slices and
		// re-check, so Drain waits at most ~100ms on this request.
		deadline := time.Now().Add(interval)
		for !s.draining.Load() && time.Now().Before(deadline) {
			d := time.Until(deadline)
			if d > 100*time.Millisecond {
				d = 100 * time.Millisecond
			}
			time.Sleep(d)
		}
		if s.draining.Load() {
			break
		}
	}
	return &TopResp{Snapshots: n}, nil
}
