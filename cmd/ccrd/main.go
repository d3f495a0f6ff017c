// Command ccrd is the resident CCR simulation daemon: it keeps prepared
// programs, CCR compilations, simulation results and oracle digests in
// single-flight caches across requests and serves compile / simulate /
// batch / sweep / verify / phases requests over the internal/serve wire
// protocol on a unix socket or TCP address.
//
// With -store, the content-addressed artifact store is layered under every
// resident suite, so compilation and simulation results survive daemon
// restarts (entries are revision-stamped; a rebuilt daemon recomputes).
//
// Its live state (per-op request counts, in-flight requests, suite-cache
// and store counters, per-scheme reuse totals) is always on and read over
// the wire with ccrctl stats, status and top. With -spans, each handled
// request also writes one "serve" span to a per-process span log that
// ccrviz timeline reads; without it the daemon stays bit-transparent.
//
// SIGTERM (or SIGINT) drains gracefully: the listener closes, in-flight
// requests finish and are answered, the run manifest (with -manifest) is
// flushed, and the process exits 0. A second signal force-exits.
//
// Usage:
//
//	ccrd [-addr unix:/tmp/ccrd.sock] [-jobs N] [-manifest run.json] [-store DIR]
//	     [-spans DIR] [-version]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"syscall"

	"ccr/internal/buildinfo"
	"ccr/internal/obsv"
	"ccr/internal/serve"
	"ccr/internal/store"
)

func main() {
	addr := flag.String("addr", "unix:/tmp/ccrd.sock",
		"listen address: unix:/path, tcp:host:port, a socket path, or host:port")
	jobs := flag.Int("jobs", 0, "default pool width for request fan-outs (0 = GOMAXPROCS)")
	manifest := flag.String("manifest", "", "accumulate a JSON run manifest, flushed on drain")
	storeDir := flag.String("store", "", "root a persistent artifact store here (survives restarts)")
	spanDir := flag.String("spans", "", "record per-request span logs under this directory")
	showVersion := flag.Bool("version", false, "print build/version info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String())
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ccrd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, Revision: store.DefaultRevision()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccrd:", err)
			os.Exit(2)
		}
	}

	cfg := serve.Config{
		Jobs:         *jobs,
		ManifestPath: *manifest,
		Store:        st,
		Logger:       slog.Default(),
	}
	if *spanDir != "" {
		spans, err := obsv.OpenSpanLog(*spanDir, fmt.Sprintf("ccrd-%d", os.Getpid()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccrd:", err)
			os.Exit(2)
		}
		defer spans.Close()
		cfg.Spans = spans
	}

	ln, err := serve.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrd:", err)
		os.Exit(2)
	}

	srv := serve.NewServer(cfg)
	srv.HandleSignals(syscall.SIGTERM, syscall.SIGINT)

	slog.Info("ccrd: serving", "addr", *addr, "build", buildinfo.String())
	if err := srv.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "ccrd:", err)
		os.Exit(1)
	}
	// Serve returned because a drain began; wait for in-flight work.
	srv.Wait()
	slog.Info("ccrd: drained")
}
