package reuse_test

import (
	"testing"

	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/progen"
	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// digest runs prog on a fresh machine (optionally with a DTM attached and
// the engine pinned) and returns its oracle digest.
func digest(t *testing.T, prog *ir.Program, d emu.TraceBuffer, interp bool, args []int64) oracle.Digest {
	t.Helper()
	m := emu.New(prog)
	m.Interp = interp
	m.DTM = d
	var c oracle.Collector
	c.Attach(m)
	res, err := m.Run(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return c.Finish(res, m.Mem)
}

// TestDTMTransparency is the scheme's §3.1 analogue: attaching a DTM to
// the base program must leave every reuse-invariant observable —
// result, memory image, store stream, return stream — bit-identical to
// the plain run, on both engines, across every workload.
func TestDTMTransparency(t *testing.T) {
	for _, b := range workloads.All(workloads.Tiny) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ref := digest(t, b.Prog, nil, false, b.Train)
			for _, interp := range []bool{false, true} {
				d := reuse.NewDTM(reuse.DefaultDTMConfig(), b.Prog)
				got := digest(t, b.Prog, d, interp, b.Train)
				if err := oracle.Compare(ref, got); err != nil {
					t.Fatalf("interp=%v: %v", interp, err)
				}
				st := d.Stats()
				if st.Lookups == 0 {
					t.Fatalf("interp=%v: DTM saw no eligible landings", interp)
				}
			}
		})
	}
}

// TestDTMEngineParity pins the two engines to *identical* digests — trace
// checksum and instruction count included — with the same warm-started
// DTM geometry, plus identical flat buffer statistics.
func TestDTMEngineParity(t *testing.T) {
	for _, b := range workloads.All(workloads.Tiny) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			dFast := reuse.NewDTM(reuse.DefaultDTMConfig(), b.Prog)
			fast := digest(t, b.Prog, dFast, false, b.Train)
			dInterp := reuse.NewDTM(reuse.DefaultDTMConfig(), b.Prog)
			slow := digest(t, b.Prog, dInterp, true, b.Train)
			if !fast.Equal(slow) {
				t.Fatalf("engine digests differ:\nfast:   %+v\ninterp: %+v", fast, slow)
			}
			if dFast.Stats() != dInterp.Stats() {
				t.Fatalf("engine DTM stats differ:\nfast:   %+v\ninterp: %+v", dFast.Stats(), dInterp.Stats())
			}
		})
	}
}

// TestDTMActuallyReuses guards against a vacuous transparency pass: at
// least one workload must see real trace hits at the default geometry.
func TestDTMActuallyReuses(t *testing.T) {
	hits := int64(0)
	for _, b := range workloads.All(workloads.Tiny) {
		d := reuse.NewDTM(reuse.DefaultDTMConfig(), b.Prog)
		m := emu.New(b.Prog)
		m.DTM = d
		if _, err := m.Run(b.Train...); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		st := d.Stats()
		hits += st.Hits
		if st.Hits != m.Stats.DTMHits {
			t.Fatalf("%s: buffer hits %d != machine hits %d", b.Name, st.Hits, m.Stats.DTMHits)
		}
	}
	if hits == 0 {
		t.Fatal("no workload produced a single trace hit — the scheme is inert")
	}
}

// TestDTMStoreInvalidation: a store to a watched object must kill the
// memory-dependent traces that loaded from it, and the buffer must never
// serve a stale trace afterwards (checked architecturally by the
// transparency tests; here we check the mechanism's bookkeeping).
func TestDTMStoreInvalidation(t *testing.T) {
	var withMem *workloads.Benchmark
	for _, b := range workloads.All(workloads.Tiny) {
		d := reuse.NewDTM(reuse.DefaultDTMConfig(), b.Prog)
		m := emu.New(b.Prog)
		m.DTM = d
		if _, err := m.Run(b.Train...); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if d.Stats().Invalidates > 0 {
			withMem = b
			break
		}
	}
	if withMem == nil {
		t.Skip("no small-scale workload exercises store invalidation")
	}
}

// TestSchemeKeys is the cross-scheme key-collision gate: no two distinct
// scheme configurations — in particular a CCR and a DTM artifact whose
// numeric geometries coincide — may share a canonical key.
func TestSchemeKeys(t *testing.T) {
	cc := crb.DefaultConfig()
	tc := reuse.DefaultDTMConfig()
	configs := []reuse.Config{
		{Scheme: reuse.Off},
		reuse.CCR(cc),
		reuse.CCR(crb.Config{Entries: 32, Instances: 8, Assoc: 1}),
		reuse.DTMOnly(tc),
		reuse.DTMOnly(reuse.DTMConfig{Entries: 32, Instances: 8, Assoc: 1, MinRun: 3}),
		reuse.Both(cc, tc),
		reuse.Both(crb.Config{Entries: 32, Instances: 8, Assoc: 1}, tc),
	}
	seen := map[string]reuse.Config{}
	for _, c := range configs {
		k := c.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %+v and %+v both map to %q", prev, c, k)
		}
		seen[k] = c
	}
	// The numeric-coincidence case called out by the refactor: identical
	// geometry numbers under different schemes must never alias.
	a := reuse.CCR(crb.Config{Entries: 64, Instances: 4, Assoc: 2}).Key()
	b := reuse.DTMOnly(reuse.DTMConfig{Entries: 64, Instances: 4, Assoc: 2, MinRun: 1}).Key()
	if a == b {
		t.Fatalf("CCR and DTM keys alias: %q", a)
	}
	// Irrelevant geometry must not fragment the key space.
	if got := (reuse.Config{Scheme: reuse.Off, CRB: cc, DTM: tc}).Key(); got != "off" {
		t.Fatalf("off key carries irrelevant geometry: %q", got)
	}
	if reuse.DTMOnly(tc).Key() != (reuse.Config{Scheme: reuse.DTMScheme, CRB: cc, DTM: tc}).Key() {
		t.Fatal("dtm key depends on an unattached CRB geometry")
	}
}

// TestParseScheme covers the flag-surface parser.
func TestParseScheme(t *testing.T) {
	for _, s := range reuse.Schemes() {
		got, err := reuse.ParseScheme(string(s))
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := reuse.ParseScheme("hybrid"); err == nil {
		t.Fatal("ParseScheme accepted an unknown scheme")
	}
}

// TestDTMConfigKey pins the canonical geometry key format and its
// normalization.
func TestDTMConfigKey(t *testing.T) {
	if got := reuse.DefaultDTMConfig().Key(); got != "te256.ti4.ta2.mr3" {
		t.Fatalf("default key = %q", got)
	}
	// Degenerate geometries normalize to their effective shape.
	if a, b := (reuse.DTMConfig{}).Key(), (reuse.DTMConfig{Entries: 1, Instances: 1, Assoc: 1, MinRun: 1}).Key(); a != b {
		t.Fatalf("zero config key %q != clamped key %q", a, b)
	}
}

// TestHeadKeyRoundTrip pins EncodeHead/DecodeHead as exact inverses over
// representative corners; FuzzHeadKey extends this to arbitrary values.
func TestHeadKeyRoundTrip(t *testing.T) {
	cases := []struct {
		fn ir.FuncID
		pc int32
	}{
		{0, 0}, {1, 1}, {13, 1 << 20}, {1<<31 - 1, 1<<31 - 1}, {-1, -1}, {-5, 1234},
	}
	for _, c := range cases {
		fn, pc := reuse.DecodeHead(reuse.EncodeHead(c.fn, c.pc))
		if fn != c.fn || pc != c.pc {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.fn, c.pc, fn, pc)
		}
	}
}

// TestDTMOutOfRangeNeverPanics: the buffer is probed with identities from
// fuzzers and chaos wrappers; garbage must read as a miss, never a panic.
func TestDTMOutOfRangeNeverPanics(t *testing.T) {
	b := workloads.Load("compress", workloads.Tiny)
	d := reuse.NewDTM(reuse.DefaultDTMConfig(), b.Prog)
	regs := make([]int64, ir.RegFileCap)
	for _, fn := range []ir.FuncID{-1, 0, 1 << 20} {
		for _, pc := range []int32{-1, 0, 5, 1 << 20} {
			d.Lookup(fn, pc, regs)
			d.Begin(fn, pc, regs)
			d.Complete(fn, pc, regs)
		}
	}
	d.Abort()
	d.Store(ir.NoMem)
	d.Store(ir.MemID(1 << 20))
}

// TestDTMHeadStats: per-head accounting must cover every hit (summing to
// the flat counter) and decode to in-range program coordinates.
func TestDTMHeadStats(t *testing.T) {
	for _, b := range workloads.All(workloads.Tiny) {
		d := reuse.NewDTM(reuse.DTMConfig{Entries: 16, Instances: 2, Assoc: 1, MinRun: 3}, b.Prog)
		m := emu.New(b.Prog)
		m.DTM = d
		if _, err := m.Run(b.Train...); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var hits, reused int64
		for _, hs := range d.HeadStats() {
			hits += hs.Hits
			reused += hs.Reused
			if int(hs.Fn) >= len(b.Prog.Funcs) || hs.Fn < 0 {
				t.Fatalf("%s: head stat names unknown function %d", b.Name, hs.Fn)
			}
		}
		st := d.Stats()
		if hits != st.Hits || reused != m.Stats.DTMReusedInstrs {
			t.Fatalf("%s: head stats (%d hits, %d reused) != flat (%d hits, %d reused)",
				b.Name, hits, reused, st.Hits, m.Stats.DTMReusedInstrs)
		}
	}
}

// FuzzHeadKey fuzzes the trace-key encoding: EncodeHead/DecodeHead must
// round-trip exactly, and probing a live buffer with arbitrary identities
// and register values must never panic. Seeded from the predecoded runs
// of a real workload plus generated random programs (progen), per the
// fuzz-target convention of this repo.
func FuzzHeadKey(f *testing.F) {
	b := workloads.Load("compress", workloads.Tiny)
	dec := b.Prog.Decoded()
	for fid, df := range dec.Funcs {
		for pc := 0; pc < len(df.Code)-1 && pc < 8; pc++ {
			f.Add(int32(fid), int32(pc), df.RunEnd[pc], int64(pc)*3)
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		gdec := progen.Generate(seed, progen.DefaultConfig()).Decoded()
		for fid, df := range gdec.Funcs {
			for pc := 0; pc < len(df.Code)-1 && pc < 4; pc++ {
				f.Add(int32(fid), int32(pc), df.RunEnd[pc], int64(seed))
			}
		}
	}
	f.Add(int32(-1), int32(-1), int32(1<<30), int64(-1))
	d := reuse.NewDTM(reuse.DefaultDTMConfig(), b.Prog)
	regs := make([]int64, ir.RegFileCap)
	f.Fuzz(func(t *testing.T, fn, pc, landing int32, seed int64) {
		key := reuse.EncodeHead(ir.FuncID(fn), pc)
		gf, gp := reuse.DecodeHead(key)
		if gf != ir.FuncID(fn) || gp != pc {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", fn, pc, gf, gp)
		}
		for i := range regs {
			regs[i] = seed + int64(i)
		}
		d.Lookup(ir.FuncID(fn), pc, regs)
		d.Begin(ir.FuncID(fn), pc, regs)
		d.Complete(ir.FuncID(fn), landing, regs)
	})
}
