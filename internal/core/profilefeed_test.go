package core

import (
	"reflect"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/progen"
	"ccr/internal/reuse"
	"ccr/internal/vprof"
)

// The value profile is fed two ways: by the interpreter's events through
// the profiler's Tracer (the reference) and by the inline fold
// (Machine.Profile), which both tiers of the predecoded engine perform
// without building events, and the interpreter from its own events. These
// tests require every feed to finish the same profile, result, error text
// and emu.Stats, including where an instruction limit or a fault cuts the
// run.

// profileFeed names one way of feeding a profiler.
type profileFeed int

const (
	profInterp      profileFeed = iota // interpreter events through Tracer()
	profBatch                          // inline fold, batch tier where eligible
	profCarefulFold                    // inline fold, careful tier only (carefulOnly)
	profInterpFold                     // inline fold on the interpreter
	numProfileFeeds
)

func (f profileFeed) String() string {
	return [...]string{"interp", "batch", "careful fold", "interp fold"}[f]
}

// profileOutcome is everything a profiled run reports.
type profileOutcome struct {
	Profile *vprof.Profile
	Result  int64
	Err     string
	Emu     emu.Stats
}

func runProfileFeed(prog *ir.Program, rc reuse.Config, args []int64, limit int64, cut int, feed profileFeed) profileOutcome {
	// The profile is built against prog itself: it holds its program,
	// and the careful tier's copy differs from prog in its decoded form.
	run := prog
	if feed == profCarefulFold {
		run = carefulOnly(prog)
	}
	m := emu.New(run)
	m.Limit = limit
	m.Interp = feed == profInterp || feed == profInterpFold
	if cut > 0 && cut < len(m.Mem) {
		m.Mem = m.Mem[:cut]
	}
	attachReuse(m, run, rc, nil)
	pr := vprof.NewProfiler(prog)
	if feed == profInterp {
		m.Trace = pr.Tracer()
	} else {
		m.Profile = pr
	}
	var out profileOutcome
	var err error
	out.Result, err = m.Run(args...)
	if err != nil {
		out.Err = err.Error()
	}
	out.Profile, out.Emu = pr.Finish(), m.Stats
	return out
}

// profileCase is a digestCase whose loops may run longer: a positive
// maxLoop overrides the knobs' trip-count bound, so some counters see
// more distinct values than they hold.
type profileCase struct {
	digestCase
	maxLoop int
}

// checkProfileFeeds runs c under every feed and fails on any difference.
// It returns the program and the interpreter's outcome so callers can
// check the inputs were not vacuous.
func checkProfileFeeds(t *testing.T, c profileCase) (*ir.Program, profileOutcome) {
	t.Helper()
	cfg := c.progenConfig()
	if c.maxLoop > 0 {
		cfg.MaxLoop = c.maxLoop
	}
	base := progen.Generate(c.seed, cfg)
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
	want := runProfileFeed(prog, rc, []int64{c.arg}, limit, c.cut, profInterp)
	for f := profBatch; f < numProfileFeeds; f++ {
		got := runProfileFeed(prog, rc, []int64{c.arg}, limit, c.cut, f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: the %s feed's profile differs from the interpreter's:\n got  %+v\n want %+v", c, f, got, want)
		}
	}
	return prog, want
}

// evicts reports whether any of prog's instructions saw more distinct
// input tuples than its value counter holds, so the counter evicted.
func evicts(prog *ir.Program, prof *vprof.Profile) bool {
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if prof.Distinct(ir.InstrRef{Func: f.ID, Block: b.ID, Index: i}) > 16 {
					return true
				}
			}
		}
	}
	return false
}

// TestProfileFeedsAgree is the deterministic tier-1 slice of
// FuzzProfileFeed: 64 generated programs, half of them cut by a small
// instruction limit, a quarter with data memory cut short, a quarter with
// loops of up to 24 iterations, and a quarter compiled and run under each
// reuse scheme, so the folds at reuse and invalidate instructions and
// beside armed memos are compared too.
func TestProfileFeedsAgree(t *testing.T) {
	schemes := reuse.Schemes()
	var limited, faulted, calls, reusable, evicting int
	for seed := uint64(0); seed < 64; seed++ {
		c := profileCase{digestCase: digestCase{feedCase: feedCase{
			seed:   seed,
			knobs:  uint32(seed * 0x9E3779B9),
			arg:    int64(seed%7) - 1,
			scheme: reuse.Off,
		}}}
		if seed%2 == 1 {
			c.limit = int64(5 + seed*seed*7%300)
		}
		if seed%4 == 2 {
			c.cut = int(1 + seed*37%96)
		}
		if seed%4 == 0 {
			c.maxLoop = 24
		}
		if seed%4 == 3 {
			c.scheme = schemes[seed/4%uint64(len(schemes))]
		}
		t.Run("", func(t *testing.T) {
			prog, o := checkProfileFeeds(t, c)
			switch {
			case o.Err == emu.ErrLimit.Error():
				limited++
			case o.Err != "":
				faulted++
			}
			if o.Emu.ByOp[ir.Call] > 0 {
				calls++
			}
			for _, lp := range o.Profile.Loops {
				if lp.ReusableInvocations > 0 {
					reusable++
					break
				}
			}
			if evicts(prog, o.Profile) {
				evicting++
			}
		})
	}
	t.Logf("of 64 runs: %d cut by the limit, %d faulted, %d with calls, %d with a reusable loop invocation, %d with an evicting counter",
		limited, faulted, calls, reusable, evicting)
	if limited == 0 || faulted == 0 || calls == 0 || reusable == 0 || evicting == 0 {
		t.Fatalf("vacuous inputs: %d cut by the limit, %d faulted, %d with calls, %d with a reusable loop invocation, %d with an evicting counter",
			limited, faulted, calls, reusable, evicting)
	}
}

// FuzzProfileFeed checks the inline profile folds (batch tier, careful
// tier, interpreter) against the event-fed profiles on arbitrary
// generated programs, arguments, instruction limits, schemes and memory
// cuts. The scheme byte's low bits pick the scheme and bit 0x80
// function-level compilation; a non-zero cut truncates data memory, and
// loop, when non-zero, bounds trip counts at up to 31 iterations.
func FuzzProfileFeed(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint32(seed*0x9E3779B9), int8(seed), uint16(seed*97), uint8(seed&3|seed&4<<5), uint8(seed&2*20), uint8(seed&1*24))
	}
	schemes := reuse.Schemes()
	f.Fuzz(func(t *testing.T, seed uint64, knobs uint32, arg int8, limit uint16, scheme uint8, cut uint8, loop uint8) {
		checkProfileFeeds(t, profileCase{
			digestCase: digestCase{
				feedCase: feedCase{
					seed:   seed,
					knobs:  knobs,
					arg:    int64(arg),
					limit:  int64(limit),
					scheme: schemes[int(scheme&0x7f)%len(schemes)],
				},
				cut:       int(cut),
				funcLevel: scheme&0x80 != 0,
			},
			maxLoop: int(loop & 31),
		})
	})
}
