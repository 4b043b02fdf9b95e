package core

import (
	"strings"
	"testing"

	"dprof/internal/cache"
	"dprof/internal/sim"
)

func TestCacheResidencyTracksLiveObjects(t *testing.T) {
	m, a, p := collectorWorld(2)
	typ := a.RegisterType("resident_r", 128, "")
	m.Schedule(0, 0, func(c *sim.Ctx) {
		// Two objects live for a long stretch, one freed immediately.
		x := a.Alloc(c, typ)
		y := a.Alloc(c, typ)
		z := a.Alloc(c, typ)
		a.Free(c, z)
		c.Compute(1_000_000)
		a.Free(c, x)
		a.Free(c, y)
	})
	m.RunAll()
	v := p.CacheResidency(0)
	if v.ReplayedObjs < 3 {
		t.Fatalf("replayed %d objects", v.ReplayedObjs)
	}
	avg := v.AvgLinesFor("resident_r")
	// Two 128-byte objects (2 lines each) resident for almost the whole
	// span: expect close to 4 average lines.
	if avg < 3 || avg > 5 {
		t.Fatalf("avg lines = %.2f, want ~4", avg)
	}
	if !strings.Contains(v.String(), "resident_r") {
		t.Error("render missing type")
	}
}

func TestCacheResidencyFreeRemovesLines(t *testing.T) {
	m, a, p := collectorWorld(1)
	typ := a.RegisterType("transient", 128, "")
	m.Schedule(0, 0, func(c *sim.Ctx) {
		// Objects freed right away: near-zero average residency.
		for i := 0; i < 50; i++ {
			x := a.Alloc(c, typ)
			a.Free(c, x)
			c.Compute(10_000)
		}
	})
	m.RunAll()
	v := p.CacheResidency(0)
	if avg := v.AvgLinesFor("transient"); avg > 1 {
		t.Fatalf("freed-immediately objects average %.2f resident lines", avg)
	}
}

func TestCacheResidencyEvictsAtCapacity(t *testing.T) {
	const a, b = 0, 1 // type ids
	c := newLRUCache(2, 2)
	c.insert(1, 1, a)
	c.insert(2, 2, a)
	c.insert(3, 3, b) // evicts line 1 (LRU)
	if c.evictions != 1 {
		t.Fatalf("evictions = %d", c.evictions)
	}
	if c.byType[a] != 1 || c.byType[b] != 1 {
		t.Fatalf("byType = %v", c.byType)
	}
	// Touch line 2 then insert: line 3 is now LRU.
	c.insert(2, 2, a)
	c.insert(4, 4, b)
	if resident(c, 3) {
		t.Fatal("LRU order not respected")
	}
	if !resident(c, 2) || !resident(c, 4) || c.resident != 2 {
		t.Fatalf("resident lines wrong: 2=%v 4=%v n=%d", resident(c, 2), resident(c, 4), c.resident)
	}
	// A freed line leaves a slot the next insert reuses without evicting.
	c.remove(2, 2)
	c.insert(5, 5, a)
	if c.evictions != 2 || len(c.slots) != 2 {
		t.Fatalf("evictions = %d, slots = %d", c.evictions, len(c.slots))
	}
}

// resident reports whether a line is in the replay cache.
func resident(c *lruCache, line uint64) bool {
	base, ok := c.lines.page(line>>6, false)
	return ok && c.lines.cells[base+int32(line&63)] != 0
}

// TestCacheResidencyUsesConfiguredLineSize: the replay maps objects to lines
// of the configured size, so a 256-byte object is 2 lines of 128 bytes.
func TestCacheResidencyUsesConfiguredLineSize(t *testing.T) {
	cfg := cache.DefaultConfig()
	cfg.LineSize = 128
	ts := NewTypeSet()
	typ := ts.Intern("wide", "", 256, 256)
	as := NewAddressSet()
	as.AddStatic(typ, 0x10000)
	// A type gets a row at the next event's accrual, so one more object.
	as.AddStatic(ts.Intern("other", "", 64, 64), 0x20000)
	v := CacheResidencyOf(NewStaticProfile(ts, nil, as, nil, cfg, cache.SingleSocket(1)), 0)
	if len(v.Rows) != 1 || v.Rows[0].Type != "wide" || v.Rows[0].MaxLines != 2 || v.Rows[0].AvgLines != 2 {
		t.Fatalf("rows = %+v, want one row of 2 lines", v.Rows)
	}
	if want := int((cfg.L2Size + cfg.L3Size) / 128); v.CapacityLines != want {
		t.Fatalf("capacity = %d lines, want %d", v.CapacityLines, want)
	}
}

func TestCacheResidencyEmptyAddressSet(t *testing.T) {
	_, _, p := collectorWorld(1)
	v := p.CacheResidency(0)
	// Statics seeded by Attach still replay; the view must not crash and
	// statics (alloc time 0, never freed) should be resident.
	if v.CapacityLines == 0 {
		t.Fatal("capacity not computed")
	}
}
