package core

import (
	"testing"
	"testing/quick"

	"dprof/internal/cache"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
	"dprof/internal/sym"
)

func testAlloc() *mem.Allocator {
	return mem.New(mem.DefaultConfig(), 4, lockstat.NewRegistry())
}

// descOf wraps a live allocator type as a standalone value descriptor for
// tests that drive the model-layer builders directly. Each call returns a
// fresh pointer; a test reuses the one it made, mirroring interning.
func descOf(t *mem.Type) *TypeDesc {
	return &TypeDesc{Name: t.Name, Desc: t.Desc, Size: t.Size, ObjSize: t.ObjSize()}
}

// wireAddrSet connects an allocator's hooks to an address set the way Attach
// does, interning each live type. It returns the desc resolver.
func wireAddrSet(a *mem.Allocator, as *AddressSet) func(*mem.Type) *TypeDesc {
	ts := NewTypeSet()
	descFor := func(t *mem.Type) *TypeDesc {
		if t == nil {
			return nil
		}
		return ts.Intern(t.Name, t.Desc, t.Size, t.ObjSize())
	}
	a.OnAlloc(func(c *sim.Ctx, t *mem.Type, addr uint64) {
		as.RecordAlloc(c.Now(), int32(c.Core.ID), descFor(t), addr)
	})
	a.OnFree(func(c *sim.Ctx, t *mem.Type, addr uint64) {
		as.RecordFree(c.Now(), descFor(t), addr)
	})
	return descFor
}

func ev(pc string, core int, level cache.Level, lat uint32, write bool) *sim.AccessEvent {
	return &sim.AccessEvent{
		PC: sym.Intern(pc), Core: core, Level: level, Latency: lat,
		Write: write, Size: 8, Time: 0,
	}
}

func TestSampleTableAggregation(t *testing.T) {
	a := testAlloc()
	typ := descOf(a.RegisterType("t", 128, ""))
	st := NewSampleTable()
	st.Add(typ, 0, ev("f", 0, cache.L1Hit, 3, false))
	st.Add(typ, 0, ev("f", 0, cache.ForeignHit, 200, false))
	st.Add(typ, 8, ev("f", 1, cache.DRAM, 250, true))
	st.Add(nil, 0, ev("g", 0, cache.DRAM, 250, false))

	if st.Total != 4 || st.TotalMisses != 3 || st.Unresolved != 1 {
		t.Fatalf("totals: %d/%d/%d", st.Total, st.TotalMisses, st.Unresolved)
	}
	s := st.Get(SampleKey{Type: typ, Offset: 0, PC: sym.Intern("f")})
	if s == nil || s.Count != 2 || s.Misses != 1 {
		t.Fatalf("key stats = %+v", s)
	}
	if s.AvgLatency() != (3+200)/2.0 {
		t.Fatalf("avg latency = %f", s.AvgLatency())
	}
	agg := st.ByType()[typ]
	if agg.Samples != 3 || agg.Misses != 2 {
		t.Fatalf("type agg = %+v", agg)
	}
	if got := agg.MissShare(st); got != 2.0/3.0 {
		t.Fatalf("miss share = %f", got)
	}
	if agg.AvgMissLatency() != (200+250)/2.0 {
		t.Fatalf("avg miss latency = %f", agg.AvgMissLatency())
	}
}

func TestSampleKeysOrdered(t *testing.T) {
	a := testAlloc()
	typ := descOf(a.RegisterType("t2", 128, ""))
	st := NewSampleTable()
	for i := 0; i < 5; i++ {
		st.Add(typ, 0, ev("hot", 0, cache.L1Hit, 3, false))
	}
	st.Add(typ, 8, ev("cold", 0, cache.L1Hit, 3, false))
	keys := st.Keys()
	if len(keys) != 2 || sym.Name(keys[0].PC) != "hot" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestHotOffsets(t *testing.T) {
	a := testAlloc()
	typ := descOf(a.RegisterType("t3", 256, ""))
	st := NewSampleTable()
	for i := 0; i < 10; i++ {
		st.Add(typ, 17, ev("f", 0, cache.L1Hit, 3, false)) // aligns to 16
	}
	for i := 0; i < 5; i++ {
		st.Add(typ, 64, ev("g", 0, cache.L1Hit, 3, false))
	}
	st.Add(typ, 128, ev("h", 0, cache.L1Hit, 3, false))
	offs := st.HotOffsets(typ, 8, 2)
	if len(offs) != 2 {
		t.Fatalf("offsets = %v", offs)
	}
	// Result is sorted by offset but selected by heat: 16 and 64.
	if offs[0] != 16 || offs[1] != 64 {
		t.Fatalf("hot offsets = %v, want [16 64]", offs)
	}
}

func TestCPUMaskTracking(t *testing.T) {
	a := testAlloc()
	typ := descOf(a.RegisterType("t4", 128, ""))
	st := NewSampleTable()
	st.Add(typ, 0, ev("f", 0, cache.L1Hit, 3, true))
	st.Add(typ, 0, ev("f", 3, cache.L1Hit, 3, true))
	agg := st.ByType()[typ]
	if popcount64(agg.WriteCPUs) != 2 {
		t.Fatalf("write CPU count = %d", popcount64(agg.WriteCPUs))
	}
}

func TestQuickSampleCountsConserved(t *testing.T) {
	a := testAlloc()
	typ := descOf(a.RegisterType("t5", 128, ""))
	prop := func(levels []uint8) bool {
		st := NewSampleTable()
		misses := uint64(0)
		for _, l := range levels {
			lv := cache.Level(l % 5)
			if lv != cache.L1Hit {
				misses++
			}
			st.Add(typ, uint32(l%16)*8, ev("f", int(l%4), lv, 10, l%2 == 0))
		}
		agg := st.ByType()[typ]
		if len(levels) == 0 {
			return agg == nil
		}
		return st.Total == uint64(len(levels)) && st.TotalMisses == misses &&
			agg.Samples == uint64(len(levels)) && agg.Misses == misses
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSetUsage(t *testing.T) {
	scfg := sim.DefaultConfig()
	scfg.Cores = 2
	m := sim.New(scfg)
	a := testAlloc()
	typ := a.RegisterType("u", 128, "")
	as := NewAddressSet()
	descFor := wireAddrSet(a, as)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		x := a.Alloc(c, typ)
		y := a.Alloc(c, typ)
		a.Free(c, x)
		_ = y
	})
	m.RunAll()
	u := as.UsageFor(descFor(typ))
	if u.PeakCount != 2 || u.LiveCount != 1 {
		t.Fatalf("usage = %+v", u)
	}
	if u.PeakBytes != 2*typ.ObjSize() {
		t.Fatalf("peak bytes = %d", u.PeakBytes)
	}
	if u.Allocs != 2 || u.Frees != 1 {
		t.Fatalf("allocs/frees = %d/%d", u.Allocs, u.Frees)
	}
}

func TestAddressSetRecordsLifetimes(t *testing.T) {
	scfg := sim.DefaultConfig()
	scfg.Cores = 1
	m := sim.New(scfg)
	a := testAlloc()
	typ := a.RegisterType("lt", 128, "")
	as := NewAddressSet()
	descFor := wireAddrSet(a, as)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		x := a.Alloc(c, typ)
		c.Compute(5000)
		a.Free(c, x)
	})
	m.RunAll()
	var rec *ObjRecord
	for i := 0; i < as.Len(); i++ {
		r := as.At(i)
		if as.Types()[r.Type] == descFor(typ) {
			rec = &r
		}
	}
	if rec == nil || rec.Live() {
		t.Fatal("record missing or still live")
	}
	if rec.FreeAt-rec.AllocAt < 5000 {
		t.Fatalf("lifetime = %d, want >= 5000", rec.FreeAt-rec.AllocAt)
	}
}

func TestAddressSetStatics(t *testing.T) {
	a := testAlloc()
	typ, addr := a.Static("dev", 128, "")
	d := descOf(typ)
	as := NewAddressSet()
	as.AddStatic(d, addr)
	u := as.UsageFor(d)
	if u.PeakCount != 1 || u.PeakBytes != 128 {
		t.Fatalf("static usage = %+v", u)
	}
}

func TestAddressSetMaxObjects(t *testing.T) {
	scfg := sim.DefaultConfig()
	scfg.Cores = 1
	m := sim.New(scfg)
	a := testAlloc()
	typ := a.RegisterType("cap", 128, "")
	as := NewAddressSet()
	as.MaxObjects = 5
	descFor := wireAddrSet(a, as)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		for i := 0; i < 10; i++ {
			a.Alloc(c, typ)
		}
	})
	m.RunAll()
	if as.Len() != 5 {
		t.Fatalf("retained %d records, want 5", as.Len())
	}
	// At least the 5 over-cap object allocations were dropped (slab
	// bookkeeping allocations are also reported through the hook).
	if as.Dropped() < 5 {
		t.Fatalf("dropped = %d, want >= 5", as.Dropped())
	}
	// Counters must keep running past the cap.
	if as.UsageFor(descFor(typ)).PeakCount != 10 {
		t.Fatalf("peak = %d, want 10", as.UsageFor(descFor(typ)).PeakCount)
	}
}
