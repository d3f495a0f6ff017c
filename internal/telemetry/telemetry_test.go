package telemetry

import (
	"encoding/json"
	"testing"
)

func TestMetricsAccumulation(t *testing.T) {
	m := NewMetrics()
	m.Lookup(3, MissCold)
	m.Lookup(3, Hit)
	m.Lookup(3, Hit)
	m.Lookup(3, MissInput)
	m.Lookup(7, MissConflict)
	m.Lookup(7, MissMemInvalid)
	m.Commit(3, true)
	m.Commit(3, false)
	m.Evict(3, EvictCapacity, 2)
	m.Evict(3, EvictSlotLRU, 1)
	m.Evict(7, EvictInvalidation, 3)
	m.Invalidate(1, 3)
	m.Invalidate(1, 0)

	r3 := m.Region(3)
	if r3 == nil {
		t.Fatal("region 3 never materialized")
	}
	want3 := RegionMetrics{Lookups: 4, Hits: 2, MissCold: 1, MissInput: 1,
		Commits: 1, CommitFails: 1,
		EvictionsCapacity: 1, EvictedInstances: 2, SlotOverwrites: 1}
	if *r3 != want3 {
		t.Errorf("region 3 = %+v, want %+v", *r3, want3)
	}
	r7 := m.Region(7)
	want7 := RegionMetrics{Lookups: 2, MissConflict: 1, MissMemInvalid: 1,
		InvalidatedInstances: 3}
	if r7 == nil || *r7 != want7 {
		t.Errorf("region 7 = %+v, want %+v", r7, want7)
	}
	mm := m.Mem(1)
	if mm == nil || *mm != (MemMetrics{Invalidations: 2, Fanout: 3}) {
		t.Errorf("mem 1 = %+v", mm)
	}
	if m.Region(99) != nil || m.Mem(99) != nil {
		t.Error("unobserved IDs materialized counters")
	}

	s := m.Summary()
	want := Summary{Regions: 2, Lookups: 6, Hits: 2,
		MissCold: 1, MissConflict: 1, MissInput: 1, MissMemInvalid: 1,
		Commits: 1, CommitFails: 1, Evictions: 1, Invalidated: 3, Invalidations: 2}
	if s != want {
		t.Errorf("Summary = %+v, want %+v", s, want)
	}
}

func TestReportSortedAndSerializable(t *testing.T) {
	m := NewMetrics()
	m.Lookup(9, Hit)
	m.Lookup(2, MissCold)
	m.Lookup(5, MissCold)
	m.Invalidate(4, 1)
	m.Invalidate(2, 0)

	r := m.Report()
	for i := 1; i < len(r.Regions); i++ {
		if r.Regions[i-1].Region >= r.Regions[i].Region {
			t.Fatalf("regions not strictly ascending: %v", r.Regions)
		}
	}
	for i := 1; i < len(r.Mem); i++ {
		if r.Mem[i-1].Mem >= r.Mem[i].Mem {
			t.Fatalf("mem rows not strictly ascending: %v", r.Mem)
		}
	}

	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Totals  Summary          `json:"totals"`
		Regions []map[string]any `json:"regions"`
		Mem     []map[string]any `json:"mem"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, data)
	}
	if decoded.Totals != m.Summary() {
		t.Errorf("totals round-trip: %+v != %+v", decoded.Totals, m.Summary())
	}
	if len(decoded.Regions) != 3 || len(decoded.Mem) != 2 {
		t.Errorf("decoded %d regions, %d mem rows", len(decoded.Regions), len(decoded.Mem))
	}
}
