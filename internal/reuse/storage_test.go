package reuse

import (
	"math/rand"
	"reflect"
	"testing"

	"ccr/internal/ir"
	"ccr/internal/workloads"
)

// TestDTMEntriesFollowHeads checks that a DTM allocates a set's ways only
// on the set's first install, and that a buffer so allocated answers a
// random stream of lookups, recordings, completions and stores — heads
// outside the plan set and stores of unknown provenance included —
// exactly as one whose every set is allocated up front.
func TestDTMEntriesFollowHeads(t *testing.T) {
	prog := workloads.Load("sc", workloads.Tiny).Prog
	for _, cfg := range []DTMConfig{
		{Entries: 256, Instances: 4, Assoc: 2, MinRun: 3},
		{Entries: 64, Instances: 2, Assoc: 4, MinRun: 2},
		{Entries: 16, Instances: 2, Assoc: 1, MinRun: 3},
		{Entries: 8, Instances: 3, Assoc: 8, MinRun: 2},
	} {
		rng := rand.New(rand.NewSource(1))
		lazy, full := NewDTM(cfg, prog), NewDTM(cfg, prog)
		for s := range full.ways {
			if lazy.ways[s] != nil {
				t.Fatalf("%+v: a new DTM has set %d allocated", cfg, s)
			}
			full.ways[s] = make([]tentry, full.cfg.Assoc)
		}
		type head struct {
			fn ir.FuncID
			pc int32
		}
		var heads []head
		for fn, plans := range lazy.plans.plans {
			for pc, p := range plans {
				if p != nil {
					heads = append(heads, head{ir.FuncID(fn), int32(pc)})
				}
			}
		}
		installed := map[int]bool{}
		regs := make([]int64, ir.RegFileCap)
		for i := 0; i < 20000; i++ {
			h := heads[rng.Intn(len(heads))]
			if rng.Intn(40) == 0 {
				// A head outside the plan set, or outside the program.
				h = head{ir.FuncID(rng.Intn(len(prog.Funcs) + 1)), int32(rng.Intn(400) - 5)}
			}
			for r := range regs {
				regs[r] = int64(rng.Intn(3))
			}
			switch rng.Intn(5) {
			case 0, 1:
				ltr, lok := lazy.Lookup(h.fn, h.pc, regs)
				ftr, fok := full.Lookup(h.fn, h.pc, regs)
				if lok != fok || (lok && !reflect.DeepEqual(*ltr, *ftr)) {
					t.Fatalf("%+v: step %d: Lookup(%v) = %v lazy, %v full", cfg, i, h, lok, fok)
				}
			case 2:
				if l, f := lazy.Begin(h.fn, h.pc, regs), full.Begin(h.fn, h.pc, regs); l != f {
					t.Fatalf("%+v: step %d: Begin(%v) = %v lazy, %v full", cfg, i, h, l, f)
				}
			case 3:
				landing := int32(rng.Intn(400))
				if p := lazy.pending.plan; p != nil && rng.Intn(4) != 0 {
					landing = p.succTarget
					if p.succFall >= 0 && rng.Intn(2) == 0 {
						landing = p.succFall
					}
				}
				fn, key := lazy.pending.fn, uint64(0)
				if p := lazy.pending.plan; p != nil {
					key = EncodeHead(fn, p.head)
				}
				l, f := lazy.Complete(fn, landing, regs), full.Complete(fn, landing, regs)
				if l != f {
					t.Fatalf("%+v: step %d: Complete(%d, %d) = %v lazy, %v full", cfg, i, fn, landing, l, f)
				}
				if l {
					installed[lazy.setIdx(key)] = true
				}
			case 4:
				m := ir.MemID(rng.Intn(len(prog.Objects)+1) - 1) // ir.NoMem now and then
				if l, f := lazy.Store(m), full.Store(m); l != f {
					t.Fatalf("%+v: step %d: Store(%d) = %d lazy, %d full", cfg, i, m, l, f)
				}
			}
		}
		if lazy.Stats() != full.Stats() || lazy.ResidentTraces() != full.ResidentTraces() ||
			!reflect.DeepEqual(lazy.HeadStats(), full.HeadStats()) {
			t.Errorf("%+v: lazy %+v, full %+v", cfg, lazy.Stats(), full.Stats())
		}
		if lazy.Stats().Records == 0 || lazy.Stats().Hits == 0 || lazy.Stats().Invalidates == 0 {
			t.Errorf("%+v: vacuous stream: %+v", cfg, lazy.Stats())
		}
		sets := 0
		for s, w := range lazy.ways {
			if (w != nil) != installed[s] {
				t.Errorf("%+v: set %d allocated %v, installed into %v", cfg, s, w != nil, installed[s])
			}
			if w != nil {
				sets++
			}
		}
		t.Logf("%+v: %d of %d sets allocated", cfg, sets, len(lazy.ways))
	}
}
