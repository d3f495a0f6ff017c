// Command ccrbench maintains BENCH_emu.json, the repository's committed
// record of emulator benchmark results, and gates changes against it.
//
// It parses raw `go test -bench` output (one or more -count repetitions per
// benchmark), reduces each benchmark to per-unit medians, and then either
//
//	-update baseline|current   writes the medians into that section of the
//	                           JSON file (baseline = the pre-optimization
//	                           engine, current = the engine as committed)
//	-check                     compares the medians against the file:
//	                           fails if any benchmark regressed more than
//	                           -gate percent in ns/op or more than 10
//	                           percent in B/op over its "current" entry,
//	                           or if MachineRun is less than -minspeedup
//	                           times faster than its "baseline" entry, or
//	                           if MachineRun allocates.
//
// scripts/bench.sh is the intended driver; see EXPERIMENTS.md for how to
// read the file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// bytesGatePct is the largest B/op growth over the "current" record that
// -check accepts, in percent. Allocation is deterministic enough that,
// unlike time, it needs no per-machine tolerance.
const bytesGatePct = 10

// Result is the median record of one benchmark in one section.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Samples     int                `json:"samples"`
}

// Section is one snapshot: the benchmark set measured at one commit.
type Section struct {
	Commit     string            `json:"commit,omitempty"`
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// File is the whole BENCH_emu.json document.
type File struct {
	CPU      string   `json:"cpu,omitempty"`
	Goos     string   `json:"goos,omitempty"`
	Goarch   string   `json:"goarch,omitempty"`
	Baseline *Section `json:"baseline,omitempty"`
	Current  *Section `json:"current,omitempty"`
}

func main() {
	var (
		benchPath  = flag.String("bench", "-", "raw `go test -bench` output file (- for stdin)")
		jsonPath   = flag.String("json", "BENCH_emu.json", "benchmark record file")
		update     = flag.String("update", "", "write medians into this section (baseline|current)")
		check      = flag.Bool("check", false, "gate the parsed run against the record file")
		gatePct    = flag.Float64("gate", 25, "max allowed ns/op regression vs current, percent")
		minSpeedup = flag.Float64("minspeedup", 1.5, "required MachineRun speedup vs baseline")
		commit     = flag.String("commit", "", "commit id to stamp on an updated section")
		note       = flag.String("note", "", "note to stamp on an updated section")
	)
	flag.Parse()

	run, env, err := parseBench(*benchPath)
	if err != nil {
		fatal("parse %s: %v", *benchPath, err)
	}
	if len(run) == 0 {
		fatal("no benchmark lines found in %s", *benchPath)
	}

	switch {
	case *update != "":
		if *update != "baseline" && *update != "current" {
			fatal("-update must be baseline or current, got %q", *update)
		}
		doUpdate(*jsonPath, *update, run, env, *commit, *note)
	case *check:
		doCheck(*jsonPath, run, *gatePct, *minSpeedup)
	default:
		report(run)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ccrbench: "+format+"\n", args...)
	os.Exit(1)
}

// sample is one `BenchmarkX  iters  v unit  v unit ...` line.
type sample map[string]float64

// parseBench reads raw benchmark output and groups repeated runs by
// benchmark name (the -cpu suffix, if any, is stripped).
func parseBench(path string) (map[string][]sample, map[string]string, error) {
	var in *os.File
	if path == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		in = f
	}
	runs := make(map[string][]sample)
	env := make(map[string]string)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := sc.Text()
		for _, k := range []string{"goos", "goarch", "cpu"} {
			if v, ok := strings.CutPrefix(line, k+": "); ok {
				env[k] = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := sample{}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			s[fields[i+1]] = v
		}
		if ok && len(s) > 0 {
			runs[name] = append(runs[name], s)
		}
	}
	return runs, env, sc.Err()
}

// median reduces the repeated samples of one benchmark, unit by unit.
func median(samples []sample, unit string) (float64, bool) {
	var vs []float64
	for _, s := range samples {
		if v, ok := s[unit]; ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return 0, false
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2], true
	}
	return (vs[n/2-1] + vs[n/2]) / 2, true
}

// reduce turns raw grouped samples into the per-benchmark median Results.
func reduce(run map[string][]sample) map[string]Result {
	out := make(map[string]Result, len(run))
	for name, samples := range run {
		r := Result{Samples: len(samples)}
		r.NsPerOp, _ = median(samples, "ns/op")
		r.BytesPerOp, _ = median(samples, "B/op")
		r.AllocsPerOp, _ = median(samples, "allocs/op")
		units := map[string]bool{}
		for _, s := range samples {
			for u := range s {
				units[u] = true
			}
		}
		for u := range units {
			switch u {
			case "ns/op", "B/op", "allocs/op":
				continue
			}
			if v, ok := median(samples, u); ok {
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[u] = v
			}
		}
		out[name] = r
	}
	return out
}

func load(path string) *File {
	f := &File{}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return f
		}
		fatal("read %s: %v", path, err)
	}
	if err := json.Unmarshal(data, f); err != nil {
		fatal("decode %s: %v", path, err)
	}
	return f
}

// headCommit asks git for the short id of HEAD; empty when unavailable
// (not a git checkout, no git binary).
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func doUpdate(path, section string, run map[string][]sample, env map[string]string, commit, note string) {
	// A record without a commit id is useless for archaeology (and -check
	// refuses to gate against one), so stamp HEAD when the caller didn't.
	if commit == "" {
		if commit = headCommit(); commit == "" {
			fatal("-update %s: no -commit given and git rev-parse failed; a section must record the commit it measures", section)
		}
	}
	f := load(path)
	f.Goos, f.Goarch, f.CPU = env["goos"], env["goarch"], env["cpu"]
	sec := &Section{Commit: commit, Note: note, Benchmarks: reduce(run)}
	if section == "baseline" {
		f.Baseline = sec
	} else {
		f.Current = sec
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal("encode: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal("write %s: %v", path, err)
	}
	fmt.Printf("ccrbench: wrote %d benchmarks into %s section %q\n", len(run), path, section)
}

func doCheck(path string, run map[string][]sample, gatePct, minSpeedup float64) {
	f := load(path)
	got := reduce(run)
	failed := false

	// Regression gate: nothing may be more than gatePct slower, or
	// allocate more than bytesGatePct more bytes, than the committed
	// "current" record. A record that doesn't say which commit it
	// measured can't be trusted as a gate.
	if f.Current != nil && f.Current.Commit == "" {
		fatal("%s: current section has no commit stamp; re-record it (scripts/bench.sh update-current)", path)
	}
	if f.Current != nil {
		for name, want := range f.Current.Benchmarks {
			g, ok := got[name]
			if !ok || want.NsPerOp <= 0 {
				continue
			}
			pct := (g.NsPerOp - want.NsPerOp) / want.NsPerOp * 100
			mark := "ok"
			if pct > gatePct {
				mark = "FAIL"
				failed = true
			}
			fmt.Printf("%-18s %12.1f ns/op  vs current %12.1f  (%+6.1f%%, gate %.0f%%) %s\n",
				name, g.NsPerOp, want.NsPerOp, pct, gatePct, mark)
			mark = "ok"
			if g.BytesPerOp > want.BytesPerOp*(1+bytesGatePct/100.0) {
				mark = "FAIL"
				failed = true
			}
			fmt.Printf("%-18s %12.0f B/op   vs current %12.0f  (gate +%d%%) %s\n",
				name, g.BytesPerOp, want.BytesPerOp, bytesGatePct, mark)
		}
	}

	// Tentpole gate: the predecoded engine must hold its speedup over the
	// committed pre-optimization baseline, allocation-free.
	if f.Baseline != nil {
		if base, ok := f.Baseline.Benchmarks["MachineRun"]; ok {
			if g, ok := got["MachineRun"]; ok && g.NsPerOp > 0 {
				sp := base.NsPerOp / g.NsPerOp
				mark := "ok"
				if sp < minSpeedup {
					mark = "FAIL"
					failed = true
				}
				fmt.Printf("MachineRun speedup vs baseline: %.2fx (min %.2fx) %s\n", sp, minSpeedup, mark)
				if g.AllocsPerOp != 0 {
					fmt.Printf("MachineRun allocs/op: %v, want 0 FAIL\n", g.AllocsPerOp)
					failed = true
				}
			}
		}
	}

	// The batch tier must stay allocation-free with the trace-memoization
	// buffer attached (DTM lookup, recording and invalidation all work out
	// of preallocated entry storage).
	if g, ok := got["MachineRunDTM"]; ok && g.AllocsPerOp != 0 {
		fmt.Printf("MachineRunDTM allocs/op: %v, want 0 FAIL\n", g.AllocsPerOp)
		failed = true
	}

	if failed {
		fatal("benchmark gate failed")
	}
	fmt.Println("ccrbench: gate passed")
}

func report(run map[string][]sample) {
	got := reduce(run)
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := got[n]
		fmt.Printf("%-20s %14.1f ns/op %10.0f B/op %8.0f allocs/op  (n=%d)\n",
			n, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Samples)
	}
}
