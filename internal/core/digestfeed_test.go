package core

import (
	"reflect"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/progen"
	"ccr/internal/reuse"
)

// The oracle digest is folded two ways: inline by the predecoded engine's
// careful tier, and from the interpreter's own event stream through the
// same accumulator methods. These tests require the inline fold, alone and
// next to a tracer, to match the interpreter's fold in the accumulator
// state, result, error text, final memory and emu.Stats — including where
// an instruction limit or a fault cuts the run.

// digestFeed names one way of running a digested machine.
type digestFeed int

const (
	digestInterp  digestFeed = iota // the interpreter's event-fed fold
	digestEngine                    // inline fold, predecoded engine
	digestTracing                   // inline fold with a no-op tracer attached
	numDigestFeeds
)

func (f digestFeed) String() string {
	return [...]string{"interp", "engine", "tracing"}[f]
}

// digestOutcome is everything a digested run reports.
type digestOutcome struct {
	Digest emu.Digest
	Result int64
	Err    string
	Mem    []int64
	Emu    emu.Stats
}

// digestCase is a feedCase (its spec and ooo fields are unused) plus a
// data-memory cut and the function-level compilation switch.
type digestCase struct {
	feedCase
	// cut, when positive, truncates data memory to cut words, so any
	// load or store past it faults.
	cut       int
	funcLevel bool
}

func runDigestFeed(prog *ir.Program, rc reuse.Config, args []int64, limit int64, cut int, feed digestFeed) digestOutcome {
	m := emu.New(prog)
	m.Limit = limit
	m.Interp = feed == digestInterp
	if cut > 0 && cut < len(m.Mem) {
		m.Mem = m.Mem[:cut]
	}
	attachReuse(m, prog, rc, nil)
	var out digestOutcome
	m.Digest = &out.Digest
	if feed == digestTracing {
		m.Trace = func(*emu.Event) {}
	}
	var err error
	out.Result, err = m.Run(args...)
	if err != nil {
		out.Err = err.Error()
	}
	out.Mem, out.Emu = m.Mem, m.Stats
	return out
}

// checkDigestFeeds runs c under every feed and fails on any difference. It
// returns the interpreter's outcome so callers can check the inputs were
// not vacuous.
func checkDigestFeeds(t *testing.T, c digestCase) digestOutcome {
	t.Helper()
	base := progen.Generate(c.seed, c.progenConfig())
	prog := base
	opts := aggressiveOptions()
	opts.Limit = 2_000_000
	opts.Region.FunctionLevel = c.funcLevel
	if c.scheme.UsesCCR() {
		cr, err := Compile(base, []int64{c.arg}, opts)
		if err != nil {
			t.Skipf("compile: %v", err)
		}
		prog = cr.Prog
	}
	rc := reuse.Config{Scheme: c.scheme, CRB: opts.CRB, DTM: opts.DTM}
	limit := c.limit
	if limit <= 0 {
		limit = opts.Limit
	}
	want := runDigestFeed(prog, rc, []int64{c.arg}, limit, c.cut, digestInterp)
	for f := digestEngine; f < numDigestFeeds; f++ {
		got := runDigestFeed(prog, rc, []int64{c.arg}, limit, c.cut, f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: %s fold differs from the interpreter's:\n got  %+v\n want %+v", c, f, got, want)
		}
	}
	return want
}

// TestDigestFeedsAgree is the deterministic tier-1 slice of
// FuzzDigestFeed: 60 generated programs across every scheme, half of them
// cut by a small instruction limit, a quarter with data memory cut short
// and a third compiled with function-level regions.
func TestDigestFeedsAgree(t *testing.T) {
	schemes := reuse.Schemes()
	var limited, faulted, hits, dtmHits, funcRets int
	for seed := uint64(0); seed < 60; seed++ {
		c := digestCase{feedCase: feedCase{
			seed:   seed,
			knobs:  uint32(seed * 0x9E3779B9),
			arg:    int64(seed%7) - 1,
			scheme: schemes[seed%uint64(len(schemes))],
		}}
		if seed%2 == 1 {
			c.limit = int64(5 + seed*seed*7%300)
		}
		if seed%4 == 2 {
			c.cut = int(1 + seed*37%96)
		}
		if seed%3 == 0 {
			// Several store-free functions and frequent calls, so some
			// callees are pure and selected at function level.
			c.funcLevel = true
			c.knobs = c.knobs&^(7<<10) | 3 | 7<<13
		}
		t.Run("", func(t *testing.T) {
			o := checkDigestFeeds(t, c)
			switch {
			case o.Err == emu.ErrLimit.Error():
				limited++
			case o.Err != "":
				faulted++
			}
			if o.Emu.ReuseHits > 0 {
				hits++
			}
			if o.Emu.DTMHits > 0 {
				dtmHits++
			}
			if c.funcLevel && o.Emu.ReuseHits > 0 && o.Digest.RetCount > o.Emu.ByOp[ir.Ret] {
				funcRets++
			}
		})
	}
	t.Logf("of 60 runs: %d cut by the limit, %d faulted, %d with reuse hits, %d with DTM hits, %d with synthesized rets",
		limited, faulted, hits, dtmHits, funcRets)
	if limited == 0 || faulted == 0 || hits == 0 || dtmHits == 0 || funcRets == 0 {
		t.Fatalf("vacuous inputs: %d cut by the limit, %d faulted, %d with reuse hits, %d with DTM hits, %d with synthesized rets",
			limited, faulted, hits, dtmHits, funcRets)
	}
}

// FuzzDigestFeed checks the inline digest fold against the interpreter's
// on arbitrary generated programs, arguments, instruction limits, schemes
// and memory cuts. The scheme byte's low bits pick the scheme and bit 0x80
// function-level compilation; a non-zero cut truncates data memory.
func FuzzDigestFeed(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint32(seed*0x9E3779B9), int8(seed), uint16(seed*97), uint8(seed|seed&1<<7), uint8(seed&2*20))
	}
	schemes := reuse.Schemes()
	f.Fuzz(func(t *testing.T, seed uint64, knobs uint32, arg int8, limit uint16, scheme uint8, cut uint8) {
		checkDigestFeeds(t, digestCase{
			feedCase: feedCase{
				seed:   seed,
				knobs:  knobs,
				arg:    int64(arg),
				limit:  int64(limit),
				scheme: schemes[int(scheme)%len(schemes)],
			},
			cut:       int(cut),
			funcLevel: scheme&0x80 != 0,
		})
	})
}
