package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/reuse"
	"ccr/internal/uarch"
	"ccr/internal/workloads"
)

// rigStep is one run of a recycling sequence: timed when ucfg is set,
// digested when digest is, functional otherwise.
type rigStep struct {
	name   string
	rc     reuse.Config
	ucfg   *uarch.Config
	limit  int64
	digest bool
	interp bool // pin the reference interpreter (untimed digests)
	spans  bool // stream spans, which puts the timing model on the event feed
}

// rigOutcome is everything a step reports.
type rigOutcome struct {
	Sim    *SimResult
	Digest oracle.Digest
	Err    string
}

func outcomeOf(r *SimResult, d oracle.Digest, err error) rigOutcome {
	o := rigOutcome{Sim: r, Digest: d}
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// tel returns the step's telemetry, streaming spans into a log of t's.
func (st rigStep) tel(t *testing.T) *Telemetry {
	if !st.spans {
		return nil
	}
	l, _ := spanLog(t)
	t.Cleanup(func() { l.Close() })
	return &Telemetry{Spans: l}
}

// runOn runs st on m and, for a timed step, sim.
func (st rigStep) runOn(t *testing.T, m *emu.Machine, sim *uarch.Simulator, args []int64) rigOutcome {
	switch {
	case st.ucfg != nil:
		return outcomeOf(simulateOn(m, sim, st.rc, args, st.limit, st.tel(t), st.digest))
	case st.digest:
		m.Interp = m.Interp || st.interp
		d, err := digestOn(m, st.rc, args, st.limit)
		return outcomeOf(nil, d, err)
	default:
		r, err := functionalOn(m, st.rc, args, st.limit)
		return outcomeOf(r, oracle.Digest{}, err)
	}
}

// runFresh runs st on a machine and timing model built for it.
func (st rigStep) runFresh(t *testing.T, prog *ir.Program, args []int64) rigOutcome {
	var sim *uarch.Simulator
	if st.ucfg != nil {
		sim = uarch.NewSimulator(*st.ucfg, prog)
	}
	return st.runOn(t, emu.New(prog), sim, args)
}

// runPooled runs st through the public entry point that serves it, on
// objects from prog's pools.
func (st rigStep) runPooled(t *testing.T, prog *ir.Program, args []int64) rigOutcome {
	switch {
	case st.ucfg != nil && st.digest:
		return outcomeOf(SimulateReuseDigest(prog, st.rc, *st.ucfg, args, st.limit, st.tel(t)))
	case st.ucfg != nil:
		r, err := SimulateReuse(prog, st.rc, *st.ucfg, args, st.limit, st.tel(t))
		return outcomeOf(r, oracle.Digest{}, err)
	case st.digest && st.interp:
		d, err := DigestRunReuseEngine(prog, st.rc, args, st.limit, true)
		return outcomeOf(nil, d, err)
	case st.digest:
		d, err := DigestRunReuse(prog, st.rc, args, st.limit)
		return outcomeOf(nil, d, err)
	default:
		r, err := RunFunctionalReuse(prog, st.rc, args, st.limit)
		return outcomeOf(r, oracle.Digest{}, err)
	}
}

// rigSteps is the recycling sequence: a base run, two CCR geometries, a
// DTM run, a digest-only run, a run cut by the instruction limit, a
// digest pinned to the interpreter, a functional run of both schemes, a
// span-streaming run on the event feed, an out-of-order run and runs of
// the instruction-reuse and block-reuse baselines, one of them cut by the
// limit.
func rigSteps() []rigStep {
	opts := DefaultOptions()
	ucfg, ooo, irb, brb := opts.Uarch, opts.Uarch, opts.Uarch, opts.Uarch
	ooo.OutOfOrder = true
	irb.InstrReuse = true
	brb.BlockReuse = true
	small := crb.Config{Entries: 16, Instances: 2, Assoc: 2}
	dtm := reuse.DTMConfig{Entries: 64, Instances: 2, Assoc: 2, MinRun: 2}
	return []rigStep{
		{name: "base", rc: reuse.Config{Scheme: reuse.Off}, ucfg: &ucfg},
		{name: "ccr", rc: reuse.CCR(opts.CRB), ucfg: &ucfg, digest: true},
		{name: "ccr-small", rc: reuse.CCR(small), ucfg: &ucfg},
		{name: "dtm", rc: reuse.DTMOnly(dtm), ucfg: &ucfg},
		{name: "digest", rc: reuse.CCR(small), digest: true},
		{name: "limit", rc: reuse.CCR(opts.CRB), ucfg: &ucfg, limit: 1000},
		{name: "interp-digest", rc: reuse.Both(small, dtm), digest: true, interp: true},
		{name: "functional", rc: reuse.Both(opts.CRB, dtm)},
		{name: "spans", rc: reuse.CCR(opts.CRB), ucfg: &ucfg, spans: true},
		{name: "ooo", rc: reuse.CCR(small), ucfg: &ooo},
		{name: "instr-reuse", rc: reuse.Config{Scheme: reuse.Off}, ucfg: &irb},
		{name: "block-reuse", rc: reuse.Config{Scheme: reuse.Off}, ucfg: &brb},
		// A cut inside a reused block leaves events to skip, which the
		// timing model's reset must drop.
		{name: "block-reuse-limit", rc: reuse.Config{Scheme: reuse.Off}, ucfg: &brb, limit: 777},
	}
}

// TestRecycledRunsMatchFresh runs the recycling sequence twice on every
// tiny workload's compiled program, on one machine recycled between runs
// and one timing model per configuration reset between runs, and through
// the pooled entry points. Every run must deep-equal the same run on a
// machine and timing model built fresh — result, emu.Stats with its
// per-region counters, uarch.Stats, buffer stats, digest and error text —
// and every earlier outcome must still equal its fresh twin after all the
// later runs, which would catch a recycled machine writing the Stats an
// earlier result holds. Under -short, which CI's race job runs, four
// small workloads keep it to seconds.
func TestRecycledRunsMatchFresh(t *testing.T) {
	opts := DefaultOptions()
	names := workloads.Names()
	if testing.Short() {
		names = []string{"lex", "sc", "compress", "espresso"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w := workloads.Load(name, workloads.Tiny)
			cr, err := Compile(w.Prog, w.Train, opts)
			if err != nil {
				t.Fatal(err)
			}
			prog := cr.Prog
			m := emu.New(prog)
			sims := map[uarch.Config]*uarch.Simulator{}
			type kept struct {
				step                    string
				fresh, recycled, pooled rigOutcome
			}
			var all []kept
			for pass := 0; pass < 2; pass++ {
				for _, st := range rigSteps() {
					fresh := st.runFresh(t, prog, w.Train)
					var recycled rigOutcome
					if st.ucfg != nil {
						sim := sims[*st.ucfg]
						if sim == nil {
							sim = uarch.NewSimulator(*st.ucfg, prog)
							sims[*st.ucfg] = sim
						}
						recycled = st.runOn(t, m, sim, w.Train)
						sim.Reset()
					} else {
						recycled = st.runOn(t, m, nil, w.Train)
					}
					m.Recycle()
					pooled := st.runPooled(t, prog, w.Train)
					if st.name == "limit" && fresh.Err != emu.ErrLimit.Error() {
						t.Fatalf("the limit step ended with %q, want the limit error", fresh.Err)
					}
					if !reflect.DeepEqual(recycled, fresh) {
						t.Fatalf("pass %d, %s: recycled run differs from a fresh one:\n got  %+v\n want %+v", pass, st.name, recycled, fresh)
					}
					if !reflect.DeepEqual(pooled, fresh) {
						t.Fatalf("pass %d, %s: pooled run differs from a fresh one:\n got  %+v\n want %+v", pass, st.name, pooled, fresh)
					}
					all = append(all, kept{fmt.Sprintf("pass %d, %s", pass, st.name), fresh, recycled, pooled})
				}
			}
			for _, k := range all {
				if !reflect.DeepEqual(k.recycled, k.fresh) || !reflect.DeepEqual(k.pooled, k.fresh) {
					t.Fatalf("%s: outcome changed by later runs:\n recycled %+v\n pooled   %+v\n fresh    %+v", k.step, k.recycled, k.pooled, k.fresh)
				}
			}
		})
	}
}

// TestPooledRunsConcurrent runs the recycling sequence from 8 goroutines
// at once on one program through the pooled entry points, so pooled
// machines and timing models pass between goroutines, and requires every
// outcome to equal the serial one. It is not skipped under -short: the
// race detector checks the pools in CI's race job.
func TestPooledRunsConcurrent(t *testing.T) {
	w := workloads.Load("compress", workloads.Tiny)
	cr, err := Compile(w.Prog, w.Train, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	steps := rigSteps()
	want := make([]rigOutcome, len(steps))
	for i, st := range steps {
		want[i] = st.runFresh(t, cr.Prog, w.Train)
	}
	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range steps {
					i := (g + k) % len(steps)
					if got := steps[i].runPooled(t, cr.Prog, w.Train); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d, round %d, %s: pooled run differs from the serial one:\n got  %+v\n want %+v",
							g, r, steps[i].name, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
