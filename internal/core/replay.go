package core

import (
	"fmt"
	"sort"
	"strings"
)

// ResidencyRow is one type's time-averaged presence in the replayed cache.
type ResidencyRow struct {
	Type     string
	AvgLines float64
	MaxLines int
}

// ResidencyView is the §4.2 cache simulation: DProf replays the address set
// in time order through a simulated cache of the machine's total capacity —
// objects insert their cache lines at allocation, a free removes the
// object's lines ("when an object is freed in its path trace, that object's
// cache lines are removed from the simulated cache"), and an LRU policy
// evicts when the capacity overflows. The output is the count of each data
// type present in the cache, averaged over the simulation.
type ResidencyView struct {
	Rows          []ResidencyRow
	CapacityLines int
	Evictions     uint64
	ReplayedObjs  int
}

// replayEvent is one allocation or free in time order. ord breaks time
// ties: allocations before frees (bit 32), then by sampled object.
type replayEvent struct {
	at  uint64
	ord uint64 // free<<32 | index into the sampled objects
}

// replayObj is one sampled record: its line span and dense type id.
type replayObj struct {
	lo, hi uint64
	typ    int32
}

// sortByTime sorts events by time, keeping equal times in slice order: a
// stable LSD radix sort on at, skipping the bytes every event shares.
func sortByTime(ev []replayEvent) []replayEvent {
	var counts [8][256]int
	for _, e := range ev {
		for d := range counts {
			counts[d][byte(e.at>>(8*d))]++
		}
	}
	buf := make([]replayEvent, len(ev))
	for d := range counts {
		c := &counts[d]
		if c[byte(ev[0].at>>(8*d))] == len(ev) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, e := range ev {
			b := byte(e.at >> (8 * d))
			buf[c[b]] = e
			c[b]++
		}
		ev, buf = buf, ev
	}
	return ev
}

// typeIDs numbers type names densely in first-seen order, so per-type state
// lives in slices indexed by id. Types are keyed by name, as the views are.
type typeIDs struct {
	ids   map[string]int32
	names []string
}

func (t *typeIDs) id(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]int32)
	}
	id := int32(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// lineTable maps cache-line numbers to small per-line values through
// 64-line pages, so a run of adjacent lines costs one hash probe per page
// rather than one per line. A cell holds 0 for "absent"; callers store
// value+1.
type lineTable struct {
	index map[uint64]int32 // page (line>>6) -> base of its 64 cells
	pages []uint64         // page number of each 64-cell block, in creation order
	cells []int32
}

func newLineTable() lineTable {
	return lineTable{index: make(map[uint64]int32)}
}

// page returns the base cell of a page, creating it when create is set; ok
// is false for an absent page that was not created.
func (t *lineTable) page(p uint64, create bool) (base int32, ok bool) {
	if base, ok = t.index[p]; ok || !create {
		return base, ok
	}
	base = int32(len(t.cells))
	t.index[p] = base
	t.pages = append(t.pages, p)
	t.cells = append(t.cells, make([]int32, 64)...)
	return base, true
}

// pageSpan clips the line range [lo, hi] to page p, as cell offsets within it.
func pageSpan(p, lo, hi uint64) (first, last int32) {
	first, last = 0, 63
	if p == lo>>6 {
		first = int32(lo & 63)
	}
	if p == hi>>6 {
		last = int32(hi & 63)
	}
	return first, last
}

// lruCache is the §4.2 mini-simulation's cache: a capacity-bounded set of
// lines with LRU eviction, tracking per-type resident counts. Lines live in
// flat slot arrays threaded on an intrusive recency list (head most recent,
// tail least), so eviction takes the tail; lines find their slot through a
// page-indexed table.
type lruCache struct {
	cap   int
	lines lineTable // line -> slot+1

	slots      []lruSlot
	head, tail int32   // recency list ends; -1 when empty
	spare      []int32 // freed slots
	resident   int

	byType  []int   // resident lines per type id
	present []int32 // type ids in order of their first inserted line
	entered []bool

	evictions uint64
}

// lruSlot is one resident line.
type lruSlot struct {
	cell       int32 // its cell in lines
	typ        int32 // owning type id
	prev, next int32 // recency list neighbours; -1 terminates
}

func newLRUCache(capacity, types int) *lruCache {
	return &lruCache{
		cap:     capacity,
		lines:   newLineTable(),
		head:    -1,
		tail:    -1,
		byType:  make([]int, types),
		entered: make([]bool, types),
	}
}

// insert adds lines lo..hi for a type, evicting the LRU line when full. A
// line already resident keeps its owner and becomes most recent.
func (c *lruCache) insert(lo, hi uint64, typ int32) {
	if hi < lo {
		return
	}
	for p := lo >> 6; p <= hi>>6; p++ {
		base, _ := c.lines.page(p, true)
		first, last := pageSpan(p, lo, hi)
		for i := base + first; i <= base+last; i++ {
			if s := c.lines.cells[i] - 1; s >= 0 {
				c.unlink(s)
				c.pushHead(s)
				continue
			}
			if c.resident >= c.cap {
				if c.tail >= 0 {
					c.drop(c.tail)
				}
				c.evictions++
			}
			c.lines.cells[i] = c.add(i, typ) + 1
		}
	}
}

// remove drops whichever of lines lo..hi are resident, whatever type owns them.
func (c *lruCache) remove(lo, hi uint64) {
	if hi < lo {
		return
	}
	for p := lo >> 6; p <= hi>>6; p++ {
		base, ok := c.lines.page(p, false)
		if !ok {
			continue
		}
		first, last := pageSpan(p, lo, hi)
		for i := base + first; i <= base+last; i++ {
			if s := c.lines.cells[i] - 1; s >= 0 {
				c.drop(s)
			}
		}
	}
}

// add places a new line at the head in a free slot.
func (c *lruCache) add(cell, typ int32) int32 {
	var s int32
	if n := len(c.spare); n > 0 {
		s = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		s = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot{})
	}
	c.slots[s].cell, c.slots[s].typ = cell, typ
	c.pushHead(s)
	c.resident++
	c.byType[typ]++
	if !c.entered[typ] {
		c.entered[typ] = true
		c.present = append(c.present, typ)
	}
	return s
}

// drop removes a resident slot's line from the cache.
func (c *lruCache) drop(s int32) {
	c.unlink(s)
	c.lines.cells[c.slots[s].cell] = 0
	c.byType[c.slots[s].typ]--
	c.resident--
	c.spare = append(c.spare, s)
}

func (c *lruCache) pushHead(s int32) {
	c.slots[s].prev, c.slots[s].next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = s
	} else {
		c.tail = s
	}
	c.head = s
}

func (c *lruCache) unlink(s int32) {
	p, n := c.slots[s].prev, c.slots[s].next
	if p >= 0 {
		c.slots[p].next = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.slots[n].prev = p
	} else {
		c.tail = p
	}
}

// DefaultReplayObjects is the standard sampling bound for the §4.2 replay
// views (working set and cache residency): every consumer — the Session
// report, the HTTP API, tests — replays at the same bound so their numbers
// agree for the same profile.
const DefaultReplayObjects = 200_000

// CacheResidency runs the §4.2 replay over the profiler's address set.
func (p *Profiler) CacheResidency(maxObjects int) *ResidencyView {
	return CacheResidencyOf(p, maxObjects)
}

// CacheResidencyOf runs the §4.2 replay over any source's address set. It
// samples at most maxObjects records (weighted uniformly, as the paper picks
// address sets randomly) and replays their allocation and free events in
// time order through a cache of the machine's combined capacity.
func CacheResidencyOf(src ProfileSource, maxObjects int) *ResidencyView {
	cfg := src.CacheConfig()
	capLines := int((cfg.L2Size*uint64(src.Topology().NumCores()) + cfg.L3Size) / cfg.LineSize)
	v := &ResidencyView{CapacityLines: capLines}

	as := src.AddressSet()
	nobj := as.Len()
	step := 1
	if maxObjects > 0 && nobj > maxObjects {
		step = (nobj + maxObjects - 1) / maxObjects
	}
	// One sequential pass computes every sampled object's lines, so the
	// replay below never revisits the records.
	n := (nobj + step - 1) / step
	sampled := make([]replayObj, 0, n)
	allocs := make([]replayEvent, 0, n)
	frees := make([]replayEvent, 0, n)
	var types typeIDs
	// A record's type index maps to its replay id once per type, on first
	// sight, so ids keep first-seen record order.
	descs := as.Types()
	idOf := make([]int32, len(descs))
	for i := range idOf {
		idOf[i] = -1
	}
	for i := 0; i < nobj; i += step {
		rec := as.At(i)
		t := descs[rec.Type]
		if idOf[rec.Type] < 0 {
			idOf[rec.Type] = types.id(t.Name)
		}
		k := uint64(len(sampled))
		sampled = append(sampled, replayObj{
			lo:  rec.Addr / cfg.LineSize,
			hi:  (rec.Addr + t.ObjSize - 1) / cfg.LineSize,
			typ: idOf[rec.Type],
		})
		allocs = append(allocs, replayEvent{at: rec.AllocAt, ord: k})
		if !rec.Live() {
			frees = append(frees, replayEvent{at: rec.FreeAt, ord: 1<<32 | k})
		}
	}
	v.ReplayedObjs = len(sampled)
	if len(allocs) == 0 {
		return v
	}
	// A total order: time, alloc before a same-time free, then object index.
	// Ties matter when two types share a line, since the first to insert it
	// owns it. Allocations then frees, each in object order, sorted stably by
	// time give exactly that order.
	events := sortByTime(append(allocs, frees...))

	cache := newLRUCache(capLines, len(types.names))
	// Per-type time integrals of resident lines, summed event by event. A
	// type gets a row once it was present at an accrual: present[:rowed].
	integral := make([]float64, len(types.names))
	maxSeen := make([]int, len(types.names))
	rowed := 0
	last := events[0].at
	span := events[len(events)-1].at - events[0].at
	for _, ev := range events {
		dt := float64(ev.at - last)
		for _, id := range cache.present {
			integral[id] += dt * float64(cache.byType[id])
		}
		rowed = len(cache.present)
		last = ev.at

		o := &sampled[uint32(ev.ord)]
		if ev.ord>>32 != 0 {
			cache.remove(o.lo, o.hi)
			continue
		}
		cache.insert(o.lo, o.hi, o.typ)
		if n := cache.byType[o.typ]; n > maxSeen[o.typ] {
			maxSeen[o.typ] = n
		}
	}
	v.Evictions = cache.evictions
	for _, id := range cache.present[:rowed] {
		row := ResidencyRow{Type: types.names[id], MaxLines: maxSeen[id]}
		if span > 0 {
			row.AvgLines = integral[id] / float64(span)
		} else {
			row.AvgLines = float64(cache.byType[id])
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

// String renders the residency view.
func (v *ResidencyView) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replayed cache residency (capacity %d lines, %d objects, %d evictions)\n",
		v.CapacityLines, v.ReplayedObjs, v.Evictions)
	fmt.Fprintf(&b, "%-16s %12s %10s\n", "Type name", "Avg lines", "Max lines")
	for _, r := range v.Rows {
		if r.AvgLines < 0.5 {
			continue
		}
		fmt.Fprintf(&b, "%-16s %12.1f %10d\n", r.Type, r.AvgLines, r.MaxLines)
	}
	return b.String()
}

// AvgLinesFor returns the time-averaged resident lines for a type name.
func (v *ResidencyView) AvgLinesFor(name string) float64 {
	for _, r := range v.Rows {
		if r.Type == name {
			return r.AvgLines
		}
	}
	return 0
}
