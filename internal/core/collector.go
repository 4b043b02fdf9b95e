package core

import (
	"fmt"
	"sort"

	"dprof/internal/hw"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// Target is one object-history collection: trap the next allocation of Type
// and watch the given offsets until the object is freed.
type Target struct {
	Type    *mem.Type
	Offsets []uint32 // one offset, or two for pairwise sampling
	Set     int
}

// CollectStats accumulates per-type collection metrics, the raw material for
// Tables 6.7-6.9.
type CollectStats struct {
	Type      *mem.Type
	Cores     int    // core count of the collecting machine
	Start     uint64 // cycle the first target of this type was armed
	End       uint64 // cycle the last history of this type completed
	Histories int
	Sets      int
	Elements  uint64
	Truncated int

	// Overhead is the profiling cycles charged while this type was being
	// collected, by category ("interrupt", "memory", "communication").
	Overhead map[string]uint64

	overheadStart map[string]uint64
}

// CollectionSeconds returns the wall (simulated) time spent on this type.
func (cs *CollectStats) CollectionSeconds() float64 {
	if cs.End <= cs.Start {
		return 0
	}
	return float64(cs.End-cs.Start) / float64(sim.Freq)
}

// OverheadPct returns total overhead cycles as a percentage of the machine's
// aggregate CPU time during the collection window. The core count comes from
// the machine the collector profiled, so callers can no longer supply a
// mismatched one.
func (cs *CollectStats) OverheadPct() float64 {
	if cs.End <= cs.Start || cs.Cores <= 0 {
		return 0
	}
	var oh uint64
	for _, v := range cs.Overhead {
		oh += v
	}
	return 100 * float64(oh) / (float64(cs.End-cs.Start) * float64(cs.Cores))
}

type activeCollection struct {
	target Target
	gen    uint64
	base   uint64
	start  uint64
	hist   *History
}

// Collector drives object-access-history collection: it watches one object
// at a time (the hardware provides only four debug registers), cycling
// through a queue of (type, offsets) targets (§5.3).
type Collector struct {
	prof *Profiler

	queue []Target
	next  int

	active *activeCollection
	gen    uint64

	byType map[*mem.Type][]*History
	order  []*mem.Type
	stats  map[*mem.Type]*CollectStats

	curType *mem.Type

	// MaxLifetime truncates a history if the object outlives it; some
	// objects (sockets, ring buffers) live arbitrarily long.
	MaxLifetime uint64
	// MaxElems caps elements per history (runaway protection).
	MaxElems int
	// WatchLen is the bytes covered per watchpoint.
	WatchLen uint32

	// Done, if set, runs when the queue empties.
	Done func()

	running bool
	// finalized marks the per-type accounting as sealed by FinalizeStats;
	// a repeated finalize must not re-close the windows (it would stretch
	// End and Overhead over non-collection time). Collection resuming on a
	// new type clears the seal.
	finalized bool
}

func newCollector(p *Profiler) *Collector {
	return &Collector{
		prof:        p,
		byType:      make(map[*mem.Type][]*History),
		stats:       make(map[*mem.Type]*CollectStats),
		MaxLifetime: 3_000_000,
		MaxElems:    4096,
		WatchLen:    4,
	}
}

// Histories returns the collected histories for a live allocator type.
func (col *Collector) Histories(t *mem.Type) []*History { return col.byType[t] }

// HistoriesFor returns the collected histories for a type descriptor,
// making the Collector a HistorySource for the model layer.
func (col *Collector) HistoriesFor(d *TypeDesc) []*History {
	return col.byType[col.prof.memOf(d)]
}

// AllHistories returns every collected history.
func (col *Collector) AllHistories() []*History {
	var out []*History
	for _, t := range col.order {
		out = append(out, col.byType[t]...)
	}
	return out
}

// StatsFor returns collection statistics for one type (nil if never queued).
func (col *Collector) StatsFor(t *mem.Type) *CollectStats { return col.stats[t] }

// Pending returns how many targets remain (including the active one).
func (col *Collector) Pending() int {
	n := len(col.queue) - col.next
	if col.active != nil {
		n++
	}
	return n
}

// AddSingleTargets queues `sets` history sets for t: each set watches every
// WatchLen-aligned offset of the type once.
func (col *Collector) AddSingleTargets(t *mem.Type, sets int) {
	col.AddSingleTargetsRange(t, 0, uint32(t.Size), sets)
}

// AddSingleTargetsRange queues `sets` history sets covering only offsets in
// [lo, hi) — the paper's optimization of profiling just the bytes covering
// the members of interest (§6.4).
func (col *Collector) AddSingleTargetsRange(t *mem.Type, lo, hi uint32, sets int) {
	if sets <= 0 {
		panic("core: history sets must be positive")
	}
	if hi > uint32(t.Size) {
		hi = uint32(t.Size)
	}
	if lo >= hi {
		panic("core: empty offset range")
	}
	col.noteType(t)
	for s := 0; s < sets; s++ {
		for off := lo; off < hi; off += col.WatchLen {
			col.queue = append(col.queue, Target{Type: t, Offsets: []uint32{off}, Set: s})
		}
	}
	col.stats[t].Sets += sets
}

// AddPairTargets queues pairwise-sampling targets: every unordered pair of
// the given offsets (plus one calibration target watching the first offset
// alone), repeated for `sets` sets. §5.3 uses these to order accesses to
// different offsets within one object lifetime.
func (col *Collector) AddPairTargets(t *mem.Type, offsets []uint32, sets int) {
	if len(offsets) < 2 {
		panic("core: pairwise sampling needs at least two offsets")
	}
	col.noteType(t)
	for s := 0; s < sets; s++ {
		col.queue = append(col.queue, Target{Type: t, Offsets: []uint32{offsets[0]}, Set: s})
		for i := 0; i < len(offsets); i++ {
			for j := i + 1; j < len(offsets); j++ {
				col.queue = append(col.queue, Target{
					Type:    t,
					Offsets: []uint32{offsets[i], offsets[j]},
					Set:     s,
				})
			}
		}
	}
	col.stats[t].Sets += sets
}

func (col *Collector) noteType(t *mem.Type) {
	if _, ok := col.stats[t]; !ok {
		col.stats[t] = &CollectStats{Type: t, Cores: col.prof.M.NumCores(), Overhead: make(map[string]uint64)}
		col.order = append(col.order, t)
	}
}

// Start begins working through the queue. Histories accumulate as the
// workload runs; Done fires when the queue is exhausted.
func (col *Collector) Start() {
	if col.running {
		panic("core: collector already running")
	}
	if col.next >= len(col.queue) {
		return
	}
	col.running = true
	col.armNext()
}

// Running reports whether collection is in progress.
func (col *Collector) Running() bool { return col.running }

// armNext registers an allocation watcher for the next target.
func (col *Collector) armNext() {
	if col.next >= len(col.queue) {
		col.finishType(nil)
		col.running = false
		if col.Done != nil {
			col.Done()
		}
		return
	}
	tgt := col.queue[col.next]
	col.next++
	col.beginType(tgt.Type)
	col.prof.Alloc.WatchNextAlloc(tgt.Type, func(c *sim.Ctx, addr uint64) {
		col.onAlloc(c, tgt, addr)
	})
}

// beginType opens the per-type accounting window when collection moves to a
// new type (targets are queued type-contiguously).
func (col *Collector) beginType(t *mem.Type) {
	if col.curType == t {
		return
	}
	col.finishType(t)
}

func snapshotOverhead(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// finishType closes the current type's accounting and opens next's.
func (col *Collector) finishType(next *mem.Type) {
	now := col.prof.M.MaxCoreTime()
	if col.curType != nil {
		cs := col.stats[col.curType]
		cs.End = now
		for k, v := range col.prof.M.Overhead {
			cs.Overhead[k] = v - cs.overheadStart[k]
		}
	}
	col.curType = next
	if next != nil {
		col.finalized = false
		cs := col.stats[next]
		if cs.Start == 0 {
			cs.Start = now
			cs.overheadStart = snapshotOverhead(col.prof.M.Overhead)
		}
	}
}

// onAlloc fires when the watched type's next object is allocated: reserve it
// with the memory subsystem and broadcast the debug registers (the 220k-cycle
// per-object setup of §6.4).
func (col *Collector) onAlloc(c *sim.Ctx, tgt Target, addr uint64) {
	c.ChargeOverhead("memory", hw.ObjectReserveCycles)
	col.gen++
	act := &activeCollection{
		target: tgt,
		gen:    col.gen,
		base:   addr,
		start:  c.Now(),
		hist: &History{
			Type:      col.prof.Desc(tgt.Type),
			Offsets:   append([]uint32(nil), tgt.Offsets...),
			WatchLen:  col.WatchLen,
			Set:       tgt.Set,
			AllocCore: int32(c.Core.ID),
		},
	}
	col.active = act

	watches := make([]hw.Watch, 0, len(tgt.Offsets))
	for _, off := range tgt.Offsets {
		watches = append(watches, hw.Watch{Addr: addr + uint64(off), Len: col.WatchLen})
	}
	col.prof.DRegs.SetAll(c, watches, func(tc *sim.Ctx, ev *sim.AccessEvent, reg int) {
		col.onTrap(tc, act, ev, reg)
	})

	// Truncation guard for long-lived objects.
	gen := act.gen
	c.M.Schedule(c.Core.ID, c.Now()+col.MaxLifetime, func(tc *sim.Ctx) {
		if col.active != nil && col.active.gen == gen {
			col.finishActive(tc, true)
		}
	})
}

// onTrap records one watched access. reg identifies which debug register
// fired; the recorded offset is the start of the overlap between the access
// and that register's window, so a wide access trapping two registers yields
// one element per watched offset.
func (col *Collector) onTrap(c *sim.Ctx, act *activeCollection, ev *sim.AccessEvent, reg int) {
	if col.active != act {
		return
	}
	if len(act.hist.Elems) >= col.MaxElems {
		return
	}
	off := uint32(ev.Addr - act.base)
	if reg < len(act.target.Offsets) && off < act.target.Offsets[reg] {
		off = act.target.Offsets[reg]
	}
	// Core clocks are per-core; a trap on a core whose clock trails the
	// allocating core's would otherwise produce a negative delta.
	rel := uint64(0)
	if ev.Time > act.start {
		rel = ev.Time - act.start
	}
	if n := len(act.hist.Elems); n > 0 && act.hist.Elems[n-1].Time > rel {
		rel = act.hist.Elems[n-1].Time
	}
	act.hist.Elems = append(act.hist.Elems, HistElem{
		Offset: off,
		IP:     ev.PC,
		CPU:    int32(ev.Core),
		Time:   rel,
		Write:  ev.Write,
	})
}

// onFree is wired to the allocator's free hook by the profiler.
func (col *Collector) onFree(c *sim.Ctx, addr uint64) {
	if col.active != nil && col.active.base == addr {
		col.finishActive(c, false)
	}
}

// finishActive closes the active history and arms the next target.
func (col *Collector) finishActive(c *sim.Ctx, truncated bool) {
	act := col.active
	col.active = nil
	col.prof.DRegs.ClearAll()
	h := act.hist
	h.Truncated = truncated
	if c.Now() > act.start {
		h.Lifetime = c.Now() - act.start
	}
	if n := len(h.Elems); n > 0 && h.Elems[n-1].Time > h.Lifetime {
		h.Lifetime = h.Elems[n-1].Time
	}
	mt := act.target.Type
	col.byType[mt] = append(col.byType[mt], h)
	cs := col.stats[mt]
	cs.Histories++
	cs.Elements += uint64(len(h.Elems))
	if truncated {
		cs.Truncated++
	}
	col.armNext()
}

// FinalizeStats closes the per-type accounting windows. Call it when a run
// ends before the target queue empties (e.g. a bounded experiment), so
// collection times and overheads are measured up to "now". It is
// idempotent: the first call seals the open window, and repeated calls —
// an experiment finalizing precisely at its budget and a Session finalizing
// again on the way out — are no-ops rather than double-closes that would
// stretch End and Overhead over non-collection time.
func (col *Collector) FinalizeStats() {
	if col.finalized {
		return
	}
	col.finalized = true
	col.finishType(nil)
	col.running = col.Pending() > 0 && col.running
}

// UniquePathCount returns how many distinct full-object execution paths the
// first `sets` history sets of type t discovered (Figure 6-3's metric).
func (col *Collector) UniquePathCount(t *mem.Type, sets int) int {
	seen := make(map[string]bool)
	for _, h := range col.byType[t] {
		if sets > 0 && h.Set >= sets {
			continue
		}
		key := fmt.Sprintf("%v|%s", h.Offsets, h.Signature())
		seen[key] = true
	}
	return len(seen)
}

// SetsCollected returns how many complete sets exist for t.
func (col *Collector) SetsCollected(t *mem.Type) int {
	max := -1
	for _, h := range col.byType[t] {
		if h.Set > max {
			max = h.Set
		}
	}
	return max + 1
}

// sortHistoriesByOffset orders histories for deterministic processing.
func sortHistoriesByOffset(hs []*History) {
	sort.SliceStable(hs, func(i, j int) bool {
		a, b := hs[i], hs[j]
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if len(a.Offsets) != len(b.Offsets) {
			return len(a.Offsets) < len(b.Offsets)
		}
		for k := range a.Offsets {
			if a.Offsets[k] != b.Offsets[k] {
				return a.Offsets[k] < b.Offsets[k]
			}
		}
		return false
	})
}
