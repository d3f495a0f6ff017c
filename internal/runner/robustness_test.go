package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicIsolation: a panicking cell is recovered into its own result —
// with the sentinel, the panic value and a stack — while every other cell
// completes normally.
func TestPanicIsolation(t *testing.T) {
	var ok atomic.Int64
	cells := []Cell{
		{ID: "good-0", Do: func(context.Context) error { ok.Add(1); return nil }},
		{ID: "boom", Do: func(context.Context) error { panic("kaboom") }},
		{ID: "good-1", Do: func(context.Context) error { ok.Add(1); return nil }},
	}
	p := Pool{Jobs: 2}
	results := p.Run(context.Background(), cells)
	if ok.Load() != 2 {
		t.Fatalf("healthy cells did not all run: %d", ok.Load())
	}
	r := results[1]
	if !errors.Is(r.Err, ErrCellPanic) {
		t.Fatalf("panic not classified: %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "kaboom") || !strings.Contains(r.Err.Error(), "cell boom") {
		t.Fatalf("panic error lacks context: %v", r.Err)
	}
	if r.Stack == "" || !strings.Contains(r.Stack, "goroutine") {
		t.Fatalf("stack not captured: %q", r.Stack)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy cells polluted: %v / %v", results[0].Err, results[2].Err)
	}
}

// TestManifestRobustnessCounters: panicking and erroring cells land in the
// manifest, per cell and in the run totals.
func TestManifestRobustnessCounters(t *testing.T) {
	m := NewManifest("robustness", 2)
	p := Pool{Jobs: 2, Manifest: m}
	p.Run(context.Background(), []Cell{
		{ID: "ok", Do: func(context.Context) error { return nil }},
		{ID: "panics", Do: func(context.Context) error { panic("nope") }},
		{ID: "errs", Do: func(context.Context) error { return errors.New("bad input") }},
	})
	m.Finish()
	if m.FailedCells != 2 {
		t.Fatalf("FailedCells = %d, want 2 (panics + errs)", m.FailedCells)
	}
	if m.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", m.Panics)
	}
	byID := map[string]CellRecord{}
	for _, c := range m.Cells {
		byID[c.ID] = c
	}
	if c := byID["panics"]; c.Panics != 1 || !strings.Contains(c.Stack, "goroutine") || !strings.Contains(c.Error, "nope") {
		t.Fatalf("panics cell record: %+v", c)
	}
	if c := byID["errs"]; c.Panics != 0 || c.Stack != "" || !strings.Contains(c.Error, "bad input") {
		t.Fatalf("errs cell record: %+v", c)
	}
	if c := byID["ok"]; c.Error != "" || c.Panics != 0 {
		t.Fatalf("ok cell record: %+v", c)
	}
}

// TestCachePanicReleasesWaiters: when a single-flight fn panics, waiting
// goroutines must receive an error instead of deadlocking, and the panic
// must still propagate to the flight owner.
func TestCachePanicReleasesWaiters(t *testing.T) {
	cache := NewCache()
	entered := make(chan struct{})
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	panicked := make(chan any, 1)
	go func() {
		defer wg.Done()
		defer func() { panicked <- recover() }()
		cache.Do("k", func() (any, error) {
			close(entered)
			<-proceed
			panic("in-flight")
		})
	}()
	<-entered
	waitErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := cache.Do("k", func() (any, error) { return nil, nil })
		waitErr <- err
	}()
	// Give the waiter a moment to join the flight, then spring the panic.
	time.Sleep(10 * time.Millisecond)
	close(proceed)
	select {
	case err := <-waitErr:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("waiter error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked on panicked flight")
	}
	if p := <-panicked; p == nil {
		t.Fatal("panic swallowed instead of propagated to flight owner")
	}
	wg.Wait()
	// The flight's error is cached like any other failure.
	if _, err := cache.Do("k", func() (any, error) { return nil, nil }); err == nil {
		t.Fatal("panicked flight not cached as error")
	}
}
