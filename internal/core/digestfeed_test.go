package core

import (
	"reflect"
	"slices"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/progen"
	"ccr/internal/reuse"
	"ccr/internal/uarch"
)

// The oracle digest is folded three ways: inline by the predecoded
// engine's batch tier, inline by its careful tier, and from the
// interpreter's own event stream through the same accumulator methods.
// These tests require both inline folds (the batch tier's where it is
// eligible, the careful tier's on a program with no batch form) to match
// the interpreter's fold in the accumulator state, result, error text, final
// memory and emu.Stats — including where an instruction limit or a fault
// cuts the run. A timed digest (the fold
// and the timing model's run feed on one machine, as SimulateReuseDigest
// runs them) must also report the digest-only outcome, and the
// uarch.Stats of the same run timed without a digest.

// digestFeed names one way of running a digested machine.
type digestFeed int

const (
	digestInterp  digestFeed = iota // the interpreter's event-fed fold
	digestBatch                     // inline fold, batch tier where eligible
	digestCareful                   // inline fold, careful tier only (carefulOnly)
	numDigestFeeds
)

func (f digestFeed) String() string {
	return [...]string{"interp", "batch", "careful"}[f]
}

// digestOutcome is everything a digested run reports.
type digestOutcome struct {
	Digest emu.Digest
	Result int64
	Err    string
	Mem    []int64
	Emu    emu.Stats
}

// digestCase is a feedCase plus a data-memory cut and the function-level
// compilation switch. Its spec and ooo fields configure the timed legs.
type digestCase struct {
	feedCase
	// cut, when positive, truncates data memory to cut words, so any
	// load or store past it faults.
	cut       int
	funcLevel bool
}

func runDigestFeed(prog *ir.Program, rc reuse.Config, args []int64, limit int64, cut int, feed digestFeed) digestOutcome {
	out, _ := runDigested(prog, rc, nil, args, limit, cut, feed, true, nil)
	return out
}

// runDigested runs one machine: digested when digest is set, and timed on
// the run feed when ucfg is non-nil. A timed run returns its uarch.Stats.
// The machine and timing model are built for the run, or rig's when rig
// is non-nil; the outcome's Mem is a copy either way.
func runDigested(prog *ir.Program, rc reuse.Config, ucfg *uarch.Config, args []int64, limit int64, cut int, feed digestFeed, digest bool, rig *feedRig) (digestOutcome, uarch.Stats) {
	if feed == digestCareful {
		prog = carefulOnly(prog)
	}
	if rig == nil {
		rig = new(feedRig)
	}
	m, sim := rig.get(prog, ucfg)
	m.Limit = limit
	m.Interp = feed == digestInterp
	if cut > 0 && cut < len(m.Mem) {
		m.Mem = m.Mem[:cut]
	}
	attachReuse(m, prog, rc, nil)
	if sim != nil {
		sim.Attach(m)
		if m.OnRun == nil {
			panic("Attach did not choose the run feed")
		}
	}
	var out digestOutcome
	if digest {
		m.Digest = &out.Digest
	}
	var err error
	out.Result, err = m.Run(args...)
	if err != nil {
		out.Err = err.Error()
	}
	out.Mem, out.Emu = slices.Clone(m.Mem), m.Stats
	if sim == nil {
		return out, uarch.Stats{}
	}
	return out, sim.Stats()
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
	for f := digestBatch; f < numDigestFeeds; f++ {
		got := runDigestFeed(prog, rc, []int64{c.arg}, limit, c.cut, f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: %s fold differs from the interpreter's:\n got  %+v\n want %+v", c, f, got, want)
		}
	}
	ucfg := opts.Uarch
	ucfg.SpeculativeValidation = c.spec
	ucfg.OutOfOrder = c.ooo
	timed, batch := runDigested(prog, rc, &ucfg, []int64{c.arg}, limit, c.cut, digestBatch, false, nil)
	got, stats := runDigested(prog, rc, &ucfg, []int64{c.arg}, limit, c.cut, digestBatch, true, nil)
	timed.Digest = want.Digest
	if !reflect.DeepEqual(timed, want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v: timed runs differ from the digest-only run:\n timed           %+v\n timed, digested %+v\n want            %+v", c, timed, got, want)
	}
	if stats != batch {
		t.Fatalf("%+v: the digested timed run's uarch.Stats differ from the undigested run's:\n got  %+v\n want %+v", c, stats, batch)
	}
	// The recycled leg: one machine and timing model run the digest-only,
	// timed and timed digested cases in turn, each after whatever the last
	// left behind — a fault, a limit cut, a memory cut, an attached digest.
	var rig feedRig
	type leg struct {
		feed          digestFeed
		timed, digest bool
	}
	var outs []digestOutcome
	for _, l := range []leg{{digestBatch, true, true}, {digestInterp, false, true}, {digestBatch, true, false}, {digestBatch, false, true}} {
		u := &ucfg
		if !l.timed {
			u = nil
		}
		out, st := runDigested(prog, rc, u, []int64{c.arg}, limit, c.cut, l.feed, l.digest, &rig)
		if !l.digest {
			out.Digest = want.Digest
		}
		if !reflect.DeepEqual(out, want) || (l.timed && st != batch) {
			t.Fatalf("%+v: recycled %s run (timed %v, digested %v) differs:\n got  %+v, %+v\n want %+v, %+v", c, l.feed, l.timed, l.digest, out, st, want, batch)
		}
		outs = append(outs, out)
	}
	for i, out := range outs {
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("%+v: recycled run %d changed by later runs:\n got  %+v\n want %+v", c, i, out, want)
		}
	}
	return want
}

// TestDigestFeedsAgree is the deterministic tier-1 slice of
// FuzzDigestFeed: 60 generated programs across every scheme, half of them
// cut by a small instruction limit, a quarter with data memory cut short,
// a third compiled with function-level regions and two fifths timed on
// the out-of-order machine.
func TestDigestFeedsAgree(t *testing.T) {
	schemes := reuse.Schemes()
	var limited, faulted, hits, dtmHits, funcRets, oooHits, oooCut int
	for seed := uint64(0); seed < 60; seed++ {
		c := digestCase{feedCase: feedCase{
			seed:   seed,
			knobs:  uint32(seed * 0x9E3779B9),
			arg:    int64(seed%7) - 1,
			scheme: schemes[seed%uint64(len(schemes))],
			spec:   seed%5 == 0,
			ooo:    seed%5 >= 3,
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
			if c.ooo && o.Emu.ReuseHits+o.Emu.DTMHits > 0 {
				oooHits++
			}
			if c.ooo && o.Err != "" {
				oooCut++
			}
		})
	}
	t.Logf("of 60 runs: %d cut by the limit, %d faulted, %d with reuse hits, %d with DTM hits, %d with synthesized rets; out of order: %d with hits, %d cut",
		limited, faulted, hits, dtmHits, funcRets, oooHits, oooCut)
	if limited == 0 || faulted == 0 || hits == 0 || dtmHits == 0 || funcRets == 0 || oooHits == 0 || oooCut == 0 {
		t.Fatalf("vacuous inputs: %d cut by the limit, %d faulted, %d with reuse hits, %d with DTM hits, %d with synthesized rets; out of order: %d with hits, %d cut",
			limited, faulted, hits, dtmHits, funcRets, oooHits, oooCut)
	}
}

// FuzzDigestFeed checks both tiers' inline digest folds against the
// interpreter's,
// and the timed digest against the digest-only and undigested timed runs,
// on arbitrary generated programs, arguments, instruction limits, schemes,
// machine models and memory cuts. The scheme byte's low bits pick the
// scheme, bit 0x80 function-level compilation, bit 0x40 the out-of-order
// machine and bit 0x20 speculative validation; a non-zero cut truncates
// data memory.
func FuzzDigestFeed(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint32(seed*0x9E3779B9), int8(seed), uint16(seed*97), uint8(seed|seed&1<<7|seed&2<<5|seed&4<<3), uint8(seed&2*20))
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
				spec:   scheme&0x20 != 0,
				ooo:    scheme&0x40 != 0,
			},
			cut:       int(cut),
			funcLevel: scheme&0x80 != 0,
		})
	})
}
