package core

import (
	"fmt"
	"reflect"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/progen"
	"ccr/internal/reuse"
	"ccr/internal/uarch"
)

// The timing model can be fed two ways: per instruction (the tracer) or
// per executed run (Machine.OnRun, which the engine feeds from its batch
// tier, its careful tier and — through an event adapter — the
// interpreter). These tests require every feed to produce the same
// uarch.Stats, result, error and emu.Stats on generated programs, for the
// in-order and the out-of-order machine model.

// timingFeed names one way of attaching the timing model to a machine.
type timingFeed int

const (
	feedEvents  timingFeed = iota // per-event tracer, predecoded engine
	feedRuns                      // run feed, predecoded engine (batch tier)
	feedCareful                   // run feed with a tracer attached (careful tier)
	feedInterp                    // run feed through the interpreter
	numFeeds
)

func (f timingFeed) String() string {
	return [...]string{"events", "runs", "careful", "interp"}[f]
}

// feedOutcome is everything a timed run reports.
type feedOutcome struct {
	Result int64
	Err    string
	Emu    emu.Stats
	Uarch  uarch.Stats
}

func runTimingFeed(prog *ir.Program, rc reuse.Config, ucfg uarch.Config, args []int64, limit int64, feed timingFeed) feedOutcome {
	m := emu.New(prog)
	m.Limit = limit
	m.Interp = feed == feedInterp
	attachReuse(m, prog, rc, nil)
	sim := uarch.NewSimulator(ucfg, prog)
	if feed == feedEvents {
		// Attach feeds a machine that already carries a tracer per event.
		m.Trace = func(*emu.Event) {}
	}
	sim.Attach(m)
	if (m.OnRun == nil) != (feed == feedEvents) {
		panic(fmt.Sprintf("Attach chose the wrong feed for the %s feed", feed))
	}
	if feed == feedCareful {
		m.Trace = func(*emu.Event) {}
	}
	var out feedOutcome
	var err error
	out.Result, err = m.Run(args...)
	if err != nil {
		out.Err = err.Error()
	}
	out.Emu, out.Uarch = m.Stats, sim.Stats()
	return out
}

// feedCase is one differential input: a generated program shape, its
// argument, an instruction limit (0: unlimited), the reuse scheme and the
// machine model.
type feedCase struct {
	seed   uint64
	knobs  uint32
	arg    int64
	limit  int64
	scheme reuse.Scheme
	spec   bool
	ooo    bool
}

// progenConfig derives a program shape from knobs, a few bits per field.
func (c feedCase) progenConfig() progen.Config {
	k := c.knobs
	cfg := progen.DefaultConfig()
	cfg.Funcs = 1 + int(k&3)
	cfg.MaxDepth = 1 + int(k>>2&3)
	cfg.MaxStmts = 2 + int(k>>4&7)
	cfg.MaxLoop = 1 + int(k>>7&7)
	cfg.StoreBias = int(k>>10&7) * 14
	cfg.CallBias = int(k>>13&7) * 12
	cfg.ReadOnly = int(k>>16&7) * 14
	cfg.ValueCard = 2 + int(k>>19&7)
	return cfg
}

// checkTimingFeeds runs c under every feed and fails on any difference. It
// reports whether the run hit the limit and how many reuse hits it saw,
// so callers can check the inputs were not vacuous.
func checkTimingFeeds(t *testing.T, c feedCase) (limited bool, hits int64) {
	t.Helper()
	base := progen.Generate(c.seed, c.progenConfig())
	prog := base
	opts := aggressiveOptions()
	opts.Limit = 2_000_000
	if c.scheme.UsesCCR() {
		cr, err := Compile(base, []int64{c.arg}, opts)
		if err != nil {
			t.Skipf("compile: %v", err)
		}
		prog = cr.Prog
	}
	rc := reuse.Config{Scheme: c.scheme, CRB: opts.CRB, DTM: opts.DTM}
	ucfg := opts.Uarch
	ucfg.SpeculativeValidation = c.spec
	ucfg.OutOfOrder = c.ooo
	limit := c.limit
	if limit <= 0 {
		limit = opts.Limit
	}
	want := runTimingFeed(prog, rc, ucfg, []int64{c.arg}, limit, feedEvents)
	for f := feedRuns; f < numFeeds; f++ {
		got := runTimingFeed(prog, rc, ucfg, []int64{c.arg}, limit, f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: %s feed differs from the per-event feed:\n got  %+v\n want %+v", c, f, got, want)
		}
	}
	return want.Err == emu.ErrLimit.Error(), want.Uarch.ReuseHits
}

// TestTimingFeedsAgree is the deterministic tier-1 slice of
// FuzzTimingFeed: 50 generated programs across every scheme, half of them
// cut by a small instruction limit and a third of them on the out-of-order
// machine.
func TestTimingFeedsAgree(t *testing.T) {
	schemes := reuse.Schemes()
	var limited, hits, oooHits int
	for seed := uint64(0); seed < 50; seed++ {
		c := feedCase{
			seed:   seed,
			knobs:  uint32(seed * 0x9E3779B9),
			arg:    int64(seed%7) - 1,
			scheme: schemes[seed%uint64(len(schemes))],
			spec:   seed%5 == 0,
			ooo:    seed%3 == 0,
		}
		if seed%2 == 1 {
			c.limit = int64(5 + seed*seed*7%300)
		}
		t.Run("", func(t *testing.T) {
			lim, h := checkTimingFeeds(t, c)
			if lim {
				limited++
			}
			if h > 0 {
				hits++
				if c.ooo {
					oooHits++
				}
			}
		})
	}
	t.Logf("%d of 50 runs cut by the limit, %d with reuse hits (%d out of order)", limited, hits, oooHits)
	if limited == 0 || oooHits == 0 || oooHits == hits {
		t.Fatalf("vacuous inputs: %d runs cut by the limit, %d with reuse hits (%d out of order)", limited, hits, oooHits)
	}
}

// FuzzTimingFeed checks the run feed against the per-event feed on
// arbitrary generated programs, arguments, instruction limits, schemes and
// machine models. The scheme byte's low bits pick the scheme, bit 0x40 the
// out-of-order machine and bit 0x80 speculative validation.
func FuzzTimingFeed(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint32(seed*0x9E3779B9), int8(seed), uint16(seed*97), uint8(seed|seed&4<<4))
	}
	schemes := reuse.Schemes()
	f.Fuzz(func(t *testing.T, seed uint64, knobs uint32, arg int8, limit uint16, scheme uint8) {
		checkTimingFeeds(t, feedCase{
			seed:   seed,
			knobs:  knobs,
			arg:    int64(arg),
			limit:  int64(limit),
			scheme: schemes[int(scheme)%len(schemes)],
			spec:   scheme&0x80 != 0,
			ooo:    scheme&0x40 != 0,
		})
	})
}
