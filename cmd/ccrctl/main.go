// Command ccrctl is the thin client for the ccrd simulation daemon.
//
// Every subcommand dials the daemon, performs the version handshake —
// refusing (exit status 2) a server built from a different commit unless
// -force — and issues one request:
//
//	ccrctl ping     [-addr A]                         liveness + handshake check
//	ccrctl compile  [-addr A] -bench B [-scale S]     compilation summary
//	ccrctl simulate [-addr A] -bench B [flags]        one simulation cell
//	ccrctl batch    [-addr A] -cells F [-stream]      many cells, one round trip
//	ccrctl sweep    [-addr A] [-scale S] [-stream]    full speedup grid
//	ccrctl verify   [-addr A] [-scale S]              §3.1 transparency sweep
//	ccrctl phases   [-addr A] -bench B                warm-buffer train→ref study
//	ccrctl stats    [-addr A]                         daemon self-report
//	ccrctl top      [-addr A] [-interval D] [-n N]    live refreshing status view
//	ccrctl status   [-addr A] [-json]                 one status snapshot
//	ccrctl drain    [-addr A]                         graceful shutdown
//
// Unknown subcommands and malformed -addr values exit 2 with usage;
// operational failures (failed cells, failed verification) exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ccr/internal/buildinfo"
	"ccr/internal/serve"
)

const defaultAddr = "unix:/tmp/ccrd.sock"

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: ccrctl <command> [flags]

commands:
  ping      check daemon liveness and version handshake
  compile   request a benchmark's CCR compilation summary
  simulate  run one simulation cell
  batch     run many cells in one round trip (cells JSON via -cells)
  sweep     run the full speedup grid
  verify    run the transparency-verification sweep
  phases    run the warm-buffer train-then-ref study
  stats     print the daemon's self-report
  top       live refreshing status view (in-flight requests, reuse rates)
  status    print one status snapshot (text, or -json)
  drain     ask the daemon to shut down gracefully

common flags: -addr (default `+defaultAddr+`), -connect-timeout, -force, -version
run 'ccrctl <command> -h' for command flags`)
}

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "-version", "--version", "version":
		fmt.Println(buildinfo.String())
		return
	case "-h", "--help", "help":
		usage(os.Stdout)
		return
	case "ping", "compile", "simulate", "batch", "sweep", "verify",
		"phases", "stats", "top", "status", "drain":
		run(cmd, args)
	default:
		fmt.Fprintf(os.Stderr, "ccrctl: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
}

// run executes one subcommand; it owns the flag set, the dial and the
// exit-status policy.
func run(cmd string, args []string) {
	fs := flag.NewFlagSet("ccrctl "+cmd, flag.ExitOnError)
	addr := fs.String("addr", defaultAddr, "daemon address (unix:/path, tcp:host:port, path, or host:port)")
	force := fs.Bool("force", false, "accept a server built from a different commit")
	connectTimeout := fs.Duration("connect-timeout", 0,
		"retry a failed connect with exponential backoff for this long, e.g. 10s (0 = fail fast)")
	showVersion := fs.Bool("version", false, "print build/version info and exit")

	// Per-command flags (registered up front so -h lists them).
	bench := fs.String("bench", "", "benchmark name")
	scale := fs.String("scale", "", "workload scale: tiny, small, medium, large (default small)")
	dataset := fs.String("dataset", "", "input dataset: train or ref (default train)")
	base := fs.Bool("base", false, "simulate the base program without a CRB")
	scheme := fs.String("scheme", "", "reuse scheme: off, ccr, dtm, both (default ccr)")
	entries := fs.Int("entries", 0, "CRB entries (0 = paper default)")
	cis := fs.Int("cis", 0, "computation instances per entry (0 = default)")
	assoc := fs.Int("assoc", 0, "CRB set associativity (0 = default)")
	nomem := fs.Float64("nomem", 0, "fraction of entries without memory-valid hardware")
	tentries := fs.Int("tentries", 0, "DTM trace entries (0 = default; dtm/both schemes)")
	tinstances := fs.Int("tinstances", 0, "DTM trace instances per entry (0 = default)")
	tassoc := fs.Int("tassoc", 0, "DTM set associativity (0 = default)")
	minrun := fs.Int("minrun", 0, "DTM minimum run length worth memoizing (0 = default)")
	digest := fs.Bool("digest", false, "also return the functional oracle digest")
	notiming := fs.Bool("notiming", false, "skip the timing model (digest-only run)")
	jobs := fs.Int("jobs", 0, "server-side pool width for fan-outs (0 = server default)")
	stream := fs.Bool("stream", false, "print server progress heartbeats to stderr")
	heartbeat := fs.Int("heartbeat", 0, "streaming heartbeat interval, ms (0 = 500)")
	cellsPath := fs.String("cells", "", "batch cells JSON file ('-' = stdin): [{\"bench\":...},...]")
	strict := fs.Bool("strict", true, "exit 1 when verification fails at any point")

	// top/status-only flags.
	topInterval := fs.Duration("interval", 0, "top: snapshot interval (default 1s)")
	topN := fs.Int("n", -1, "top: stop after N snapshots (-1 = stream until interrupted)")
	jsonOut := fs.Bool("json", false, "status: print the raw snapshot JSON")

	fs.Parse(args)
	if *showVersion {
		fmt.Println(buildinfo.String())
		return
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ccrctl %s: unexpected argument %q\n", cmd, fs.Arg(0))
		os.Exit(2)
	}
	if _, _, err := serve.ParseAddr(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "ccrctl:", err)
		os.Exit(2)
	}

	geom := func() *serve.CRBGeom {
		if *entries == 0 && *cis == 0 && *assoc == 0 && *nomem == 0 {
			return nil
		}
		return &serve.CRBGeom{Entries: *entries, Instances: *cis, Assoc: *assoc, NoMemFrac: *nomem}
	}
	dtmGeom := func() *serve.DTMGeom {
		if *tentries == 0 && *tinstances == 0 && *tassoc == 0 && *minrun == 0 {
			return nil
		}
		return &serve.DTMGeom{Entries: *tentries, Instances: *tinstances, Assoc: *tassoc, MinRun: *minrun}
	}

	cl, err := serve.DialRetry(*addr, serve.DialOptions{Force: *force}, *connectTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccrctl:", err)
		if serve.IsVersionMismatch(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	defer cl.Close()

	onProgress := func(p serve.ProgressBody) {}
	if *stream {
		onProgress = func(p serve.ProgressBody) {
			fmt.Fprintf(os.Stderr, "progress: %d/%d failed=%d elapsed=%.1fs eta=%.1fs util=%.2f\n",
				p.Done, p.Total, p.Failed, p.ElapsedMS/1e3, p.EtaMS/1e3, p.Utilization)
		}
	}

	switch cmd {
	case "ping":
		if err := cl.Ping(int64(os.Getpid())); err != nil {
			fatal(err)
		}
		fmt.Printf("ok: %s\n", cl.ServerBuild().String())

	case "compile":
		requireBench(*bench)
		resp, err := cl.Compile(serve.CompileReq{Bench: *bench, Scale: *scale})
		if err != nil {
			fatal(err)
		}
		emit(resp)

	case "simulate":
		requireBench(*bench)
		resp, err := cl.Simulate(serve.SimulateReq{
			Bench: *bench, Scale: *scale, Dataset: *dataset, Base: *base,
			Scheme: *scheme, CRB: geom(), DTM: dtmGeom(),
			Digest: *digest, NoTiming: *notiming,
		})
		if err != nil {
			fatal(err)
		}
		emit(resp)

	case "batch":
		cells, err := readCells(*cellsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccrctl:", err)
			os.Exit(2)
		}
		resp, err := cl.Batch(serve.BatchReq{
			Cells: cells, Jobs: *jobs, Stream: *stream, HeartbeatMS: *heartbeat,
		}, onProgress)
		if err != nil {
			fatal(err)
		}
		emit(resp)
		if resp.Failed > 0 {
			fmt.Fprintf(os.Stderr, "ccrctl: %d/%d cells failed\n", resp.Failed, len(resp.Results))
			os.Exit(1)
		}

	case "sweep":
		resp, err := cl.Sweep(serve.SweepReq{
			Scale: *scale, Jobs: *jobs, Stream: *stream, HeartbeatMS: *heartbeat,
		}, onProgress)
		if err != nil {
			fatal(err)
		}
		emit(resp)
		if resp.Failed > 0 {
			fmt.Fprintf(os.Stderr, "ccrctl: %d sweep points failed\n", resp.Failed)
			os.Exit(1)
		}

	case "verify":
		resp, err := cl.Verify(serve.VerifyReq{
			Scale: *scale, Jobs: *jobs, Stream: *stream, HeartbeatMS: *heartbeat,
		}, onProgress)
		if err != nil {
			fatal(err)
		}
		emit(resp)
		if len(resp.Rows) > 0 {
			fmt.Fprintf(os.Stderr, "ccrctl: transparency FAILED at %d/%d points\n",
				len(resp.Rows), resp.Checked)
			if *strict {
				os.Exit(1)
			}
		} else {
			fmt.Fprintf(os.Stderr, "ccrctl: transparency verified at all %d points\n", resp.Checked)
		}

	case "phases":
		requireBench(*bench)
		resp, err := cl.Phases(serve.PhasesReq{Bench: *bench, Scale: *scale, CRB: geom()})
		if err != nil {
			fatal(err)
		}
		emit(resp)

	case "stats":
		resp, err := cl.Stats()
		if err != nil {
			fatal(err)
		}
		emit(resp)

	case "top":
		doTop(cl, *topInterval, *topN)

	case "status":
		doStatus(cl, *jsonOut)

	case "drain":
		if err := cl.Drain(); err != nil {
			fatal(err)
		}
		fmt.Println("draining")
	}
}

// readCells loads the batch cell list from a JSON file or stdin.
func readCells(path string) ([]serve.SimulateReq, error) {
	if path == "" {
		return nil, fmt.Errorf("batch requires -cells <file|->")
	}
	var b []byte
	var err error
	if path == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var cells []serve.SimulateReq
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("cells %s: %w", path, err)
	}
	return cells, nil
}

func requireBench(b string) {
	if b == "" {
		fmt.Fprintln(os.Stderr, "ccrctl: -bench is required")
		os.Exit(2)
	}
}

func emit(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccrctl:", err)
	os.Exit(1)
}
