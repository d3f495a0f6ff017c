package main

import (
	"math"
	"sort"
)

// metricDef is one printed metric: its name and unit. The lists below are
// the benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run (--trace 0) prints, on every workload.
// A workload's operation ("req") is one figure cell (fig8), one plan cell
// verified cold and warm (verify) or one client request (serve). Every
// iteration runs a fixed number of operations, so a rate would only
// restate work_s.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"work_s", "s"},
	{"req_p50_ms", "ms"},
	{"req_tail_ms", "ms"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run (--trace 1) prints, on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"alias.self_s", "s"},
	{"vprof.self_s", "s"},
	{"vprof.instrs", "count"},
	{"vprof.ns_per_instr", "ns"},
	{"region.self_s", "s"},
	{"region.regions", "count"},
	{"xform.self_s", "s"},
	{"uarch.sim_s", "s"},
	{"uarch.mips", "MIPS"},
	{"uarch.cycles", "count"},
	{"emu.batch_s", "s"},
	{"emu.instrs", "count"},
	{"crb.lookups", "count"},
	{"crb.hit_ratio", "ratio"},
	{"reuse.dtm_lookups", "count"},
	{"reuse.dtm_hit_ratio", "ratio"},
	{"oracle.digest_s", "s"},
	{"oracle.digests", "count"},
	{"runner.util", "ratio"},
	{"runner.cache_hit_ratio", "ratio"},
	{"store.put_s", "s"},
	{"store.get_s", "s"},
	{"store.puts", "count"},
	{"store.hit_ratio", "ratio"},
	{"ir.parse_s", "s"},
	{"fabric.journal_s", "s"},
	{"fabric.cells", "count"},
	{"fabric.cold_s", "s"},
	{"fabric.warm_s", "s"},
	{"serve.server_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"wire.codec_us", "us"},
	{"wire.bytes_per_req", "B"},
	{"trace.overhead_ratio", "ratio"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill renders values against defs: every listed metric appears, unset
// ones as 0.
func fill(defs []metricDef, values map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.Name] = metricOut{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for the reported tail, highest last.
var tailPercentiles = []float64{50, 75, 80, 90, 95, 98, 99, 99.5, 99.9}

// tail returns the highest candidate percentile of xs that still has at
// least ten samples beyond it, its value (nearest rank) and that count.
func tail(xs []float64) (pct, value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			pct = p
		}
	}
	rank := int(math.Ceil(pct / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1], n - rank
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
