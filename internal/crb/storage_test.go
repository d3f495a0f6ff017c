package crb

import (
	"math/rand"
	"testing"

	"ccr/internal/ir"
)

// TestCommitCopiesBanks checks that Commit never retains the caller's
// slices: rewriting them after the commit changes nothing the buffer
// answers.
func TestCommitCopiesBanks(t *testing.T) {
	c := New(Config{Entries: 4, Instances: 2}, nil)
	ins := []RegVal{{Reg: 1, Val: 42}}
	outs := []RegVal{{Reg: 2, Val: 7}}
	c.Commit(0, inst(false, ins, outs))
	ins[0].Val, outs[0] = 43, RegVal{Reg: 3, Val: 9}
	ci, ok := c.Lookup(0, regRead(map[ir.Reg]int64{1: 42}))
	if !ok || len(ci.Outputs) != 1 || ci.Outputs[0] != (RegVal{Reg: 2, Val: 7}) {
		t.Fatalf("after the caller rewrote its banks: hit %v, instance %+v", ok, ci)
	}
	if _, ok := c.Lookup(0, regRead(map[ir.Reg]int64{1: 43})); ok {
		t.Fatal("the caller's rewritten input matched")
	}
}

// TestSlotStorageReused checks that a slot keeps its bank storage: an
// instance evicted by LRU leaves its banks to the instance that replaces
// it, which holds the new values, and an entry reinstalled for another
// region starts empty while keeping its slots' storage.
func TestSlotStorageReused(t *testing.T) {
	c := New(Config{Entries: 4, Instances: 2}, nil)
	mk := func(in, out int64) Instance {
		return inst(false, []RegVal{{Reg: 1, Val: in}}, []RegVal{{Reg: 2, Val: out}})
	}
	hit := func(region ir.RegionID, in int64) (*Instance, bool) {
		return c.Lookup(region, regRead(map[ir.Reg]int64{1: in}))
	}
	c.Commit(1, mk(10, 100))
	c.Commit(1, mk(20, 200))
	e := c.findEntry(1)
	in0, out0 := &e.cis[0].Inputs[0], &e.cis[0].Outputs[0]

	// The entry is full and slot 0 least recently used: the new instance
	// evicts it and takes over its banks.
	c.Commit(1, mk(30, 300))
	if &e.cis[0].Inputs[0] != in0 || &e.cis[0].Outputs[0] != out0 {
		t.Error("the evicting instance did not reuse the slot's banks")
	}
	if ci, ok := hit(1, 30); !ok || ci.Outputs[0].Val != 300 {
		t.Fatalf("reused banks: hit %v, instance %+v", ok, ci)
	}
	if _, ok := hit(1, 10); ok {
		t.Fatal("the evicted instance still hits")
	}

	// Region 5 maps to region 1's entry and replaces it.
	c.Commit(5, mk(40, 400))
	if c.findEntry(5) != e || &e.cis[0].Inputs[0] != in0 {
		t.Error("the reinstalled entry did not keep its slot's storage")
	}
	for _, in := range []int64{20, 30} {
		if _, ok := hit(5, in); ok {
			t.Fatalf("the reinstalled entry answers with region 1's instance %d", in)
		}
	}
	if got := c.ResidentInstances(); got != 1 {
		t.Fatalf("%d resident instances after the reinstall, want 1", got)
	}
	c.InvalidateAll()
	if got := c.ResidentInstances(); got != 0 {
		t.Fatalf("%d resident instances after InvalidateAll", got)
	}
}

// TestEntriesFollowRegions checks that New allocates only the sets the
// program's region IDs index, and that a buffer so sized answers a
// random stream of commits, lookups and invalidations — including region
// IDs outside the program's table, which grow it — exactly as the
// full-size buffer does.
func TestEntriesFollowRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []Config{
		{Entries: 128, Instances: 4, Assoc: 1},
		{Entries: 64, Instances: 2, Assoc: 4},
		{Entries: 16, Instances: 2, Assoc: 2, NoMemEntriesFrac: 0.3},
		{Entries: 4, Instances: 3, Assoc: 1},
	} {
		const regions = 5
		prog := &ir.Program{}
		for r := 0; r < regions; r++ {
			prog.Regions = append(prog.Regions, &ir.Region{ID: ir.RegionID(r), MemObjects: []ir.MemID{ir.MemID(r % 2)}})
		}
		bounded, full := New(cfg, prog), New(cfg, prog)
		full.entries = make([]entry, full.cfg.Entries)
		full.setMemCap(0)
		sets := bounded.cfg.Entries / bounded.cfg.Assoc
		if want := min(sets, regions) * bounded.cfg.Assoc; len(bounded.entries) != want {
			t.Errorf("%+v: %d entries, want %d", cfg, len(bounded.entries), want)
		}
		sameMemCap := func() {
			for i := range bounded.entries {
				if bounded.entries[i].memCap != full.entries[i].memCap {
					t.Fatalf("%+v: entry %d of %d memory-capable %v, full array %v",
						cfg, i, len(bounded.entries), bounded.entries[i].memCap, full.entries[i].memCap)
				}
			}
		}
		sameMemCap()
		for i := 0; i < 5000; i++ {
			// Mostly the program's regions; now and then one outside its
			// table.
			r := ir.RegionID(rng.Intn(regions))
			if rng.Intn(50) == 0 {
				r = ir.RegionID(regions + rng.Intn(200))
			}
			regs := regRead(map[ir.Reg]int64{1: int64(rng.Intn(4))})
			switch rng.Intn(4) {
			case 0, 1:
				bc, bok := bounded.Lookup(r, regs)
				fc, fok := full.Lookup(r, regs)
				if bok != fok || (bok && bc.Outputs[0] != fc.Outputs[0]) {
					t.Fatalf("%+v: step %d: Lookup(%d) = %v bounded, %v full", cfg, i, r, bok, fok)
				}
			case 2:
				in := inst(rng.Intn(2) == 0, []RegVal{{Reg: 1, Val: regs[1]}}, []RegVal{{Reg: 2, Val: int64(i)}})
				if b, f := bounded.Commit(r, in), full.Commit(r, in); b != f {
					t.Fatalf("%+v: step %d: Commit(%d) = %v bounded, %v full", cfg, i, r, b, f)
				}
			case 3:
				m := ir.MemID(rng.Intn(2))
				if b, f := bounded.Invalidate(m), full.Invalidate(m); b != f {
					t.Fatalf("%+v: step %d: Invalidate(%d) = %d bounded, %d full", cfg, i, m, b, f)
				}
			}
		}
		sameMemCap()
		if bounded.Stats() != full.Stats() || bounded.ResidentInstances() != full.ResidentInstances() {
			t.Errorf("%+v: bounded %+v, full %+v", cfg, bounded.Stats(), full.Stats())
		}
		if sets > regions && len(bounded.entries) != bounded.cfg.Entries {
			t.Errorf("%+v: %d entries after out-of-table regions, want the full %d", cfg, len(bounded.entries), bounded.cfg.Entries)
		}
	}
}
