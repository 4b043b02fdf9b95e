package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dprof/internal/cache"
	"dprof/internal/sym"
)

// Differential tests: the page-indexed LRU replay and the deduplicated
// working-set histogram against the map-based references in
// replay_ref_test.go, over random address sets, compared field by field
// with floats bit for bit.

// diffSpec shapes one random address set.
type diffSpec struct {
	lineSize   uint64
	capLines   uint64 // replay capacity; 0 keeps the default machine's
	objects    int
	types      int
	regionB    uint64 // objects land at 8-byte granules inside this region
	timeMax    int    // allocation times are drawn from [1, timeMax]
	liveFrac   float64
	statics    int
	strided    int // objects of one more type, one L1-set period apart
	maxObjects int
}

// diffSets is the associativity-set count of the differential geometry.
const diffSets = 16

// diffSet is one generated address set plus what it is known to exercise.
type diffSet struct {
	src    *StaticProfile
	traces map[*TypeDesc][]*PathTrace

	sharedLines  bool // a line covered by objects of two different types
	tieAllocFree bool // an allocation and a free at the same time
	liveAtEnd    bool
}

func genDiffSet(rng *rand.Rand, sp diffSpec) *diffSet {
	cfg := cache.DefaultConfig()
	cfg.LineSize = sp.lineSize
	if sp.capLines > 0 {
		// Capacity = (L2 × cores + L3) / line size on one core.
		cfg.L2Size = sp.capLines / 2 * sp.lineSize
		cfg.L3Size = (sp.capLines - sp.capLines/2) * sp.lineSize
	}
	sizes := []uint64{8, 24, 40, 64, 96, 128, 200, 256, 512, 1000}
	ts := NewTypeSet()
	var descs []*TypeDesc
	for i := 0; i < sp.types; i++ {
		sz := sizes[rng.Intn(len(sizes))]
		descs = append(descs, ts.Intern(fmt.Sprintf("t%02d", i), "", sz, sz))
	}

	// Unique addresses, so the address set's live index stays exact.
	granules := int(sp.regionB / 8)
	perm := rng.Perm(granules)
	const base = 0x7f0000000
	type obj struct {
		t           *TypeDesc
		addr        uint64
		alloc, free uint64 // free 0: live at end
	}
	var objs []obj
	for i := 0; i < sp.objects && i < granules; i++ {
		o := obj{t: descs[rng.Intn(len(descs))], addr: base + uint64(perm[i])*8}
		o.alloc = uint64(1 + rng.Intn(sp.timeMax))
		if rng.Float64() >= sp.liveFrac {
			o.free = o.alloc + uint64(rng.Intn(sp.timeMax/2+1))
		}
		objs = append(objs, o)
	}

	if sp.strided > 0 {
		// A conflict pattern: every object maps to the same L1 set.
		hot := ts.Intern("hot", "", sp.lineSize, sp.lineSize)
		descs = append(descs, hot)
		for k := 0; k < sp.strided; k++ {
			o := obj{t: hot, addr: base + sp.regionB + 1<<20 + uint64(k)*diffSets*sp.lineSize}
			o.alloc = uint64(1 + rng.Intn(sp.timeMax))
			if rng.Intn(2) == 0 {
				o.free = o.alloc + uint64(rng.Intn(sp.timeMax/2+1))
			}
			objs = append(objs, o)
		}
	}

	ds := &diffSet{traces: make(map[*TypeDesc][]*PathTrace)}
	as := NewAddressSet()
	for i := 0; i < sp.statics && i < len(descs); i++ {
		as.AddStatic(descs[i], base+sp.regionB+uint64(i)*4096)
	}
	type event struct {
		at    uint64
		alloc bool
		i     int
	}
	var evs []event
	allocAt := make(map[uint64]bool)
	for i, o := range objs {
		evs = append(evs, event{o.alloc, true, i})
		allocAt[o.alloc] = true
		if o.free != 0 {
			evs = append(evs, event{o.free, false, i})
		} else {
			ds.liveAtEnd = true
		}
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].alloc && !evs[b].alloc
	})
	for _, e := range evs {
		o := objs[e.i]
		if e.alloc {
			as.RecordAlloc(e.at, 0, o.t, o.addr)
		} else {
			as.RecordFree(e.at, o.t, o.addr)
			ds.tieAllocFree = ds.tieAllocFree || allocAt[e.at]
		}
	}

	owner := make(map[uint64]*TypeDesc)
	for _, o := range objs {
		for l := o.addr / sp.lineSize; l <= (o.addr+o.t.ObjSize-1)/sp.lineSize; l++ {
			if prev, ok := owner[l]; ok && prev.Name != o.t.Name {
				ds.sharedLines = true
			}
			owner[l] = o.t
		}
	}

	// Path traces for about half the types: random steps, duplicates,
	// synthetic rows and empty ranges included; one type only synthetic.
	for i, d := range descs {
		if rng.Intn(2) == 0 {
			continue
		}
		var tr []*PathTrace
		for p := 0; p < 1+rng.Intn(3); p++ {
			t := &PathTrace{Type: d, Count: uint64(1 + rng.Intn(9)), Frequency: rng.Float64()}
			for s := 0; s < 1+rng.Intn(6); s++ {
				lo := uint32(rng.Intn(int(d.ObjSize)))
				st := PathStep{PC: sym.Intern(fmt.Sprintf("fn%d", rng.Intn(5))), OffLo: lo, OffHi: lo + uint32(rng.Intn(160))}
				st.Synthetic = i == 0 || rng.Intn(8) == 0
				t.Steps = append(t.Steps, st)
				if rng.Intn(4) == 0 {
					t.Steps = append(t.Steps, st) // a repeated step
				}
			}
			tr = append(tr, t)
		}
		ds.traces[d] = tr
	}
	ds.src = NewStaticProfile(ts, nil, as, nil, cfg, cache.SingleSocket(1))
	return ds
}

func compareResidency(t *testing.T, got, want *ResidencyView) {
	t.Helper()
	if got.CapacityLines != want.CapacityLines || got.ReplayedObjs != want.ReplayedObjs || got.Evictions != want.Evictions {
		t.Fatalf("header: got cap=%d objs=%d evict=%d, want cap=%d objs=%d evict=%d",
			got.CapacityLines, got.ReplayedObjs, got.Evictions, want.CapacityLines, want.ReplayedObjs, want.Evictions)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: got %+v, want %+v", got.Rows, want.Rows)
	}
	for i, g := range got.Rows {
		w := want.Rows[i]
		if g.Type != w.Type || g.MaxLines != w.MaxLines || math.Float64bits(g.AvgLines) != math.Float64bits(w.AvgLines) {
			t.Fatalf("row %d: got %+v, want %+v", i, g, w)
		}
	}
}

func compareWorkingSet(t *testing.T, got, want *WorkingSetView) {
	t.Helper()
	if got.SampledObjects != want.SampledObjects || got.Ways != want.Ways || got.Geometry != want.Geometry {
		t.Fatalf("header: got %d/%d/%+v, want %d/%d/%+v", got.SampledObjects, got.Ways, got.Geometry,
			want.SampledObjects, want.Ways, want.Geometry)
	}
	if math.Float64bits(got.MeanLines) != math.Float64bits(want.MeanLines) {
		t.Fatalf("mean lines: got %v, want %v", got.MeanLines, want.MeanLines)
	}
	if !reflect.DeepEqual(got.LinesPerSet, want.LinesPerSet) {
		t.Fatalf("lines per set:\ngot  %v\nwant %v", got.LinesPerSet, want.LinesPerSet)
	}
	if !reflect.DeepEqual(got.Overloaded, want.Overloaded) {
		t.Fatalf("overloaded:\ngot  %+v\nwant %+v", got.Overloaded, want.Overloaded)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("rows differ:\ngot  %+v\nwant %+v", got.Rows, want.Rows)
	}
}

func TestReplayMatchesReference(t *testing.T) {
	specs := map[string]diffSpec{
		// Capacity far below the footprint: the eviction order decides.
		"pressure": {lineSize: 64, capLines: 24, objects: 400, types: 6, regionB: 16 << 10, timeMax: 40, liveFrac: 0.2, statics: 2, strided: 60},
		// Few objects in a small region: dense line sharing, no evictions.
		"shared":       {lineSize: 64, objects: 150, types: 4, regionB: 2 << 10, timeMax: 20, liveFrac: 0.3, statics: 1},
		"wide-lines":   {lineSize: 128, capLines: 16, objects: 300, types: 5, regionB: 16 << 10, timeMax: 30, liveFrac: 0.2, statics: 2},
		"narrow-lines": {lineSize: 32, capLines: 40, objects: 300, types: 5, regionB: 8 << 10, timeMax: 30, liveFrac: 0.2},
		// Sampled replay: every third record.
		"sampled": {lineSize: 64, capLines: 32, objects: 600, types: 6, regionB: 32 << 10, timeMax: 60, liveFrac: 0.1, strided: 90, maxObjects: 200},
		// Everything at one instant: zero span.
		"one-instant": {lineSize: 64, capLines: 20, objects: 60, types: 3, regionB: 4 << 10, timeMax: 1, liveFrac: 0.5},
	}
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	var evicted, shared, ties, live, overloaded bool
	for _, name := range names {
		sp := specs[name]
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				ds := genDiffSet(rand.New(rand.NewSource(seed)), sp)
				want := refCacheResidencyOf(ds.src, sp.maxObjects)
				got := CacheResidencyOf(ds.src, sp.maxObjects)
				compareResidency(t, got, want)
				if sp.capLines > 0 && got.Evictions == 0 {
					t.Errorf("seed %d: no evictions under capacity pressure", seed)
				}
				evicted = evicted || got.Evictions > 0
				shared = shared || ds.sharedLines
				ties = ties || ds.tieAllocFree
				live = live || ds.liveAtEnd

				geo := Geometry{LineSize: sp.lineSize, Sets: diffSets, Ways: 2}
				wsWant := refBuildWorkingSet(ds.src.Addrs, ds.traces, geo, sp.maxObjects)
				wsGot := BuildWorkingSet(ds.src.Addrs, ds.traces, geo, sp.maxObjects)
				compareWorkingSet(t, wsGot, wsWant)
				overloaded = overloaded || len(wsGot.Overloaded) > 0
			}
		})
	}
	if !evicted || !shared || !ties || !live || !overloaded {
		t.Fatalf("coverage: evictions=%v shared lines=%v alloc/free ties=%v live at end=%v overloaded sets=%v",
			evicted, shared, ties, live, overloaded)
	}
}

// TestReplayTypeOnlyOnResidentLines: a type whose lines were all resident
// (owned by another type) when it allocated never enters the accrual table,
// so it gets no row; its free still removes the owner's lines. A type first
// inserted by the last event gets no row either.
func TestReplayTypeOnlyOnResidentLines(t *testing.T) {
	ts := NewTypeSet()
	owner := ts.Intern("owner", "", 512, 512)
	ghost := ts.Intern("ghost", "", 16, 16)
	late := ts.Intern("late", "", 64, 64)
	as := NewAddressSet()
	as.AddStatic(owner, 0x100000) // lines 0x4000..0x4007, resident throughout
	as.RecordAlloc(10, 0, ghost, 0x100040)
	as.RecordAlloc(12, 0, ghost, 0x100100)
	as.RecordFree(20, ghost, 0x100040) // drops one of owner's lines
	as.RecordAlloc(30, 0, late, 0x200000)
	as.RecordFree(40, late, 0x200000)
	as.RecordAlloc(50, 0, ts.Intern("final", "", 64, 64), 0x300000) // no later accrual
	for _, lineSize := range []uint64{64, 128} {
		cfg := cache.DefaultConfig()
		cfg.LineSize = lineSize
		src := NewStaticProfile(ts, nil, as, nil, cfg, cache.SingleSocket(1))
		got := CacheResidencyOf(src, 0)
		compareResidency(t, got, refCacheResidencyOf(src, 0))
		if got.AvgLinesFor("ghost") != 0 || len(got.Rows) != 2 {
			t.Fatalf("line %d: rows = %+v, want owner and late only", lineSize, got.Rows)
		}
		for _, r := range got.Rows {
			if r.Type == "ghost" || r.Type == "final" {
				t.Fatalf("line %d: %s type has a row", lineSize, r.Type)
			}
		}
	}
}

// TestWorkingSetConflictShareUsesLineSize: a type's conflict share divides
// its overloaded lines by its peak footprint in lines of the view's size.
func TestWorkingSetConflictShareUsesLineSize(t *testing.T) {
	typ := &TypeDesc{Name: "wide", Size: 128, ObjSize: 128}
	v := &WorkingSetView{
		Geometry:   Geometry{LineSize: 128, Sets: 64, Ways: 2},
		Rows:       []WorkingSetRow{{Type: typ, PeakBytes: 10 * 128}},
		Overloaded: []AssocSetStat{{Index: 3, DistinctLines: 9, ByType: map[string]int{"wide": 5}}},
	}
	if got := v.conflictShare(typ); got != 0.5 {
		t.Fatalf("conflict share = %v, want 0.5 (5 of 10 lines)", got)
	}
}
