package core

import (
	"sort"
)

// Reference implementations of the §4.2 builders, kept as the oracle for the
// differential tests in replay_diff_test.go: the map-per-line LRU with an
// O(N) eviction scan, and the working-set histogram built from per-set maps.
// They are the straightforward transcription of the paper's description;
// the production builders must reproduce them field for field.
//
// Two deliberate departures from the original map-based code: lines are
// computed with the configured line size rather than a literal 64, and the
// event sort breaks time ties on object index, so both sides see one total
// order.

type refEvent struct {
	at    uint64
	alloc bool
	obj   int // index into the record slice
}

type refLRUCache struct {
	cap     int
	tick    uint64
	entries map[uint64]*refLRUEntry // line -> entry
	byType  map[string]int

	evictions uint64
}

type refLRUEntry struct {
	typ  string
	used uint64
}

func newRefLRUCache(capacity int) *refLRUCache {
	return &refLRUCache{
		cap:     capacity,
		entries: make(map[uint64]*refLRUEntry),
		byType:  make(map[string]int),
	}
}

func (c *refLRUCache) insert(line uint64, typ string) {
	c.tick++
	if e, ok := c.entries[line]; ok {
		e.used = c.tick
		return
	}
	if len(c.entries) >= c.cap {
		var victim uint64
		var oldest uint64 = ^uint64(0)
		for l, e := range c.entries {
			if e.used < oldest {
				oldest = e.used
				victim = l
			}
		}
		c.remove(victim)
		c.evictions++
	}
	c.entries[line] = &refLRUEntry{typ: typ, used: c.tick}
	c.byType[typ]++
}

func (c *refLRUCache) remove(line uint64) {
	if e, ok := c.entries[line]; ok {
		c.byType[e.typ]--
		delete(c.entries, line)
	}
}

func refCacheResidencyOf(src ProfileSource, maxObjects int) *ResidencyView {
	cfg := src.CacheConfig()
	capLines := int((cfg.L2Size*uint64(src.Topology().NumCores()) + cfg.L3Size) / cfg.LineSize)
	v := &ResidencyView{CapacityLines: capLines}

	as := src.AddressSet()
	step := 1
	if maxObjects > 0 && as.Len() > maxObjects {
		step = (as.Len() + maxObjects - 1) / maxObjects
	}
	var events []refEvent
	for i := 0; i < as.Len(); i += step {
		rec := as.At(i)
		v.ReplayedObjs++
		events = append(events, refEvent{at: rec.AllocAt, alloc: true, obj: i})
		if !rec.Live() {
			events = append(events, refEvent{at: rec.FreeAt, alloc: false, obj: i})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		if events[a].alloc != events[b].alloc {
			return events[a].alloc
		}
		return events[a].obj < events[b].obj
	})
	if len(events) == 0 {
		return v
	}

	cache := newRefLRUCache(capLines)
	integral := make(map[string]float64)
	maxSeen := make(map[string]int)
	last := events[0].at
	span := events[len(events)-1].at - events[0].at
	accrue := func(now uint64) {
		dt := float64(now - last)
		for typ, n := range cache.byType {
			integral[typ] += dt * float64(n)
		}
		last = now
	}
	for _, ev := range events {
		accrue(ev.at)
		rec := as.At(ev.obj)
		typ := as.Types()[rec.Type]
		lineLo := rec.Addr / cfg.LineSize
		lineHi := (rec.Addr + typ.ObjSize - 1) / cfg.LineSize
		for l := lineLo; l <= lineHi; l++ {
			if ev.alloc {
				cache.insert(l, typ.Name)
			} else {
				cache.remove(l)
			}
		}
		if ev.alloc {
			if n := cache.byType[typ.Name]; n > maxSeen[typ.Name] {
				maxSeen[typ.Name] = n
			}
		}
	}
	v.Evictions = cache.evictions
	for typ, area := range integral {
		row := ResidencyRow{Type: typ, MaxLines: maxSeen[typ]}
		if span > 0 {
			row.AvgLines = area / float64(span)
		} else {
			row.AvgLines = float64(cache.byType[typ])
		}
		v.Rows = append(v.Rows, row)
	}
	sort.Slice(v.Rows, func(i, j int) bool {
		if v.Rows[i].AvgLines != v.Rows[j].AvgLines {
			return v.Rows[i].AvgLines > v.Rows[j].AvgLines
		}
		return v.Rows[i].Type < v.Rows[j].Type
	})
	return v
}

func refBuildWorkingSet(addrs *AddressSet, traces map[*TypeDesc][]*PathTrace, geo Geometry, maxObjects int) *WorkingSetView {
	v := &WorkingSetView{
		Geometry:    geo,
		LinesPerSet: make([]int, geo.Sets),
		Ways:        geo.Ways,
	}
	for _, u := range addrs.Usage() {
		v.Rows = append(v.Rows, WorkingSetRow{
			Type:      u.Type,
			PeakBytes: u.PeakBytes,
			AvgBytes:  u.AvgBytes,
			PeakCount: u.PeakCount,
			AvgCount:  u.AvgCount,
			TopPaths:  summarizePaths(traces[u.Type], 3),
		})
	}

	type offRange struct{ lo, hi uint64 }
	rangesFor := func(t *TypeDesc) []offRange {
		trs := traces[t]
		if len(trs) == 0 {
			return []offRange{{0, t.ObjSize}}
		}
		var rs []offRange
		for _, tr := range trs {
			for _, st := range tr.Steps {
				if st.Synthetic {
					continue
				}
				rs = append(rs, offRange{uint64(st.OffLo), uint64(st.OffHi)})
			}
		}
		if len(rs) == 0 {
			return []offRange{{0, t.ObjSize}}
		}
		return rs
	}
	rangeCache := make(map[*TypeDesc][]offRange)

	perSet := make([]map[uint64]string, geo.Sets)
	step := 1
	if maxObjects > 0 && addrs.Len() > maxObjects {
		step = (addrs.Len() + maxObjects - 1) / maxObjects
	}
	for i := 0; i < addrs.Len(); i += step {
		rec := addrs.At(i)
		typ := addrs.Types()[rec.Type]
		v.SampledObjects++
		rs, ok := rangeCache[typ]
		if !ok {
			rs = rangesFor(typ)
			rangeCache[typ] = rs
		}
		for _, r := range rs {
			for off := r.lo &^ (geo.LineSize - 1); off < r.hi; off += geo.LineSize {
				line := (rec.Addr + off) / geo.LineSize
				set := int(line) & (geo.Sets - 1)
				if perSet[set] == nil {
					perSet[set] = make(map[uint64]string)
				}
				if _, dup := perSet[set][line]; !dup {
					perSet[set][line] = typ.Name
				}
			}
		}
	}
	var total int
	for i, m := range perSet {
		v.LinesPerSet[i] = len(m)
		total += len(m)
	}
	v.MeanLines = float64(total) / float64(geo.Sets)

	threshold := 2 * v.MeanLines
	for i, m := range perSet {
		if float64(len(m)) > threshold && len(m) > geo.Ways {
			st := AssocSetStat{Index: i, DistinctLines: len(m), ByType: make(map[string]int)}
			for _, name := range m {
				st.ByType[name]++
			}
			v.Overloaded = append(v.Overloaded, st)
		}
	}
	sort.Slice(v.Overloaded, func(i, j int) bool {
		if v.Overloaded[i].DistinctLines != v.Overloaded[j].DistinctLines {
			return v.Overloaded[i].DistinctLines > v.Overloaded[j].DistinctLines
		}
		return v.Overloaded[i].Index < v.Overloaded[j].Index
	})
	return v
}
