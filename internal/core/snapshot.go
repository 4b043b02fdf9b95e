package core

import (
	"unsafe"

	"dprof/internal/hashtab"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// Profiler implements sim.Snapshotter. A warm-start checkpoint at the warmup
// boundary captures the entire analysis pipeline — the cumulative sample
// table, per-core pending deltas, the address set (object records mutate in
// place when objects free), the collector's queue position and in-flight
// history, the window pipeline, and the memoized path traces — so a forked
// measured phase replays byte-identically to a cold run.
//
// Pointer identity is load-bearing in three places and the restore paths
// below preserve it: the active collection (the debug-register trap handler
// and the wheel's truncation-guard event both close over the
// *activeCollection), CollectStats entries (returned by StatsFor), and the
// window pipeline itself (the machine's boundary tick holds pipe.close).
// Type interning (types/descs/mems) is append-only and keyed by name, so it
// is deliberately not rewound: descriptors interned after the checkpoint are
// simply re-used when the re-run interns them again.
//
// Profiler is also a sim.Releaser: RestoreState rebuilds the sample table's
// map and rewrites the address set's FreeAt columns, its unshared record
// blocks and its live index in full, so a parked profiler drops them.

// sampleTableState copies the table whole, its map (nil in the copy) as
// entries.
type sampleTableState struct {
	table   SampleTable
	entries []sampleEntry
}

type sampleEntry struct {
	k SampleKey
	v SampleStats
}

func captureSampleTable(st *SampleTable) sampleTableState {
	s := sampleTableState{table: *st, entries: make([]sampleEntry, 0, len(st.byKey))}
	s.table.byKey = nil
	for k, v := range st.byKey {
		s.entries = append(s.entries, sampleEntry{k, *v})
	}
	return s
}

// restoreInto rebuilds the table's map at the snapshot's size, its stats
// blocks in one array.
func (s *sampleTableState) restoreInto(st *SampleTable) {
	*st = s.table
	st.byKey = make(map[SampleKey]*SampleStats, len(s.entries))
	stats := make([]SampleStats, len(s.entries))
	for i := range s.entries {
		stats[i] = s.entries[i].v
		st.byKey[s.entries[i].k] = &stats[i]
	}
}

// addrSetState is an address set at a checkpoint. Full chunks' fixed
// fields never change again, so the checkpoint shares those blocks with the
// live set and copies only what a later run can write: every FreeAt, and the
// fixed fields of the partly filled last chunk, both at exact size.
type addrSetState struct {
	n          int
	recs       []*recBlock // the full chunks, shared
	tail       []objFixed  // records past the last full chunk
	free       []uint64    // FreeAt of all n records
	liveIdx    hashtab.Snapshot[int]
	types      []*TypeDesc
	usage      []typeUsage
	mtf        []uint32
	start, end uint64
	maxObjects int
	dropped    uint64
}

func captureAddrSet(as *AddressSet) addrSetState {
	full := as.n >> chunkShift
	st := addrSetState{
		n:          as.n,
		recs:       make([]*recBlock, full),
		tail:       make([]objFixed, as.n&chunkMask),
		free:       make([]uint64, as.n),
		liveIdx:    as.liveIdx.Capture(),
		types:      append([]*TypeDesc(nil), as.types...),
		usage:      append([]typeUsage(nil), as.usage...),
		mtf:        append([]uint32(nil), as.mtf...),
		start:      as.start,
		end:        as.end,
		maxObjects: as.MaxObjects,
		dropped:    as.dropped,
	}
	for c := range as.chunks {
		lo := c << chunkShift
		if lo >= as.n {
			break
		}
		ch := &as.chunks[c]
		copy(st.free[lo:], ch.free[:min(chunkLen, as.n-lo)])
		if c < full {
			st.recs[c] = ch.recs
		} else {
			copy(st.tail, ch.recs[:])
		}
	}
	// The shared blocks are no longer the live set's alone.
	as.owned = full
	return st
}

func (st *addrSetState) restoreInto(as *AddressSet) {
	full := len(st.recs)
	slots := (st.n + chunkMask) >> chunkShift
	for len(as.chunks) < slots {
		as.chunks = append(as.chunks, chunk{})
	}
	for c := range as.chunks {
		ch := &as.chunks[c]
		switch {
		case c < full:
			ch.recs = st.recs[c]
		case c < as.owned:
			// Shared with another checkpoint: writing it would corrupt that.
			ch.recs = nil
		}
		lo := c << chunkShift
		if lo >= st.n {
			continue
		}
		if ch.free == nil {
			ch.free = freeBlocks.GetOne()
		}
		copy(ch.free[:], st.free[lo:])
		if c == full {
			if ch.recs == nil {
				ch.recs = recBlocks.GetOne()
			}
			copy(ch.recs[:], st.tail)
		}
	}
	as.n = st.n
	as.owned = full
	as.liveIdx.Restore(&st.liveIdx)
	as.types = append(as.types[:0], st.types...)
	as.usage = append(as.usage[:0], st.usage...)
	as.mtf = append(as.mtf[:0], st.mtf...)
	as.start = st.start
	as.end = st.end
	as.MaxObjects = st.maxObjects
	as.dropped = st.dropped
}

// collectorState copies the collector whole: its queue (copied below),
// cursor, active collection, settings and flags. The byType, order and
// stats headers in it are the live ones, rewound by the lengths and copies
// beside it.
type collectorState struct {
	col Collector
	// activeElems/activeTrunc/activeLife rewind the active history, whose
	// element slice the trap handler appends to in place.
	activeElems []HistElem
	activeTrunc bool
	activeLife  uint64
	byTypeLens  map[*mem.Type]int
	// stats holds each entry whole, its overhead maps copied.
	stats map[*mem.Type]CollectStats
}

func captureCollector(col *Collector) collectorState {
	st := collectorState{
		col:        *col,
		byTypeLens: make(map[*mem.Type]int, len(col.byType)),
		stats:      make(map[*mem.Type]CollectStats, len(col.stats)),
	}
	st.col.queue = append([]Target(nil), col.queue...)
	if act := col.active; act != nil {
		st.activeElems = append([]HistElem(nil), act.hist.Elems...)
		st.activeTrunc = act.hist.Truncated
		st.activeLife = act.hist.Lifetime
	}
	for t, hs := range col.byType {
		st.byTypeLens[t] = len(hs)
	}
	for t, cs := range col.stats {
		css := *cs
		css.Overhead = snapshotOverhead(cs.Overhead)
		css.overheadStart = snapshotOverhead(cs.overheadStart)
		st.stats[t] = css
	}
	return st
}

func (st *collectorState) restoreInto(col *Collector) {
	queue := append(col.queue[:0], st.col.queue...)
	order := col.order[:len(st.col.order)]
	*col = st.col
	col.queue, col.order = queue, order
	if act := col.active; act != nil {
		act.hist.Elems = append(act.hist.Elems[:0], st.activeElems...)
		act.hist.Truncated = st.activeTrunc
		act.hist.Lifetime = st.activeLife
	}
	for t := range col.byType {
		if _, ok := st.byTypeLens[t]; !ok {
			delete(col.byType, t)
		}
	}
	for t, n := range st.byTypeLens {
		// Clear the rewound tail, so that the histories a later run
		// collected do not stay reachable through the backing array.
		hs := col.byType[t]
		clear(hs[n:])
		col.byType[t] = hs[:n]
	}
	for t := range col.stats {
		if _, ok := st.stats[t]; !ok {
			delete(col.stats, t)
		}
	}
	for t, css := range st.stats {
		cs := col.stats[t]
		*cs = css
		cs.Overhead = snapshotOverhead(css.Overhead)
		cs.overheadStart = snapshotOverhead(css.overheadStart)
	}
}

type pipeState struct {
	index    int
	start    uint64
	hasDelta bool
	delta    sampleTableState
	snapsLen int
}

type profilerState struct {
	samples  sampleTableState
	addr     addrSetState
	col      collectorState
	pending  [][]pendingSample
	sampling bool
	pipe     *pipeState
	traces   map[*TypeDesc][]*PathTrace
}

// SnapshotState implements sim.Snapshotter.
func (p *Profiler) SnapshotState() sim.State {
	st := &profilerState{
		samples:  captureSampleTable(p.Samples),
		addr:     captureAddrSet(p.AddrSet),
		col:      captureCollector(p.Collector),
		pending:  make([][]pendingSample, len(p.pending)),
		sampling: p.sampling,
		traces:   make(map[*TypeDesc][]*PathTrace, len(p.traceCache)),
	}
	for i, buf := range p.pending {
		st.pending[i] = append([]pendingSample(nil), buf...)
	}
	if pipe := p.pipe; pipe != nil {
		ps := &pipeState{index: pipe.index, start: pipe.start, snapsLen: len(pipe.snaps)}
		if pipe.delta != nil {
			ps.hasDelta = true
			ps.delta = captureSampleTable(pipe.delta)
		}
		st.pipe = ps
	}
	// Traces are immutable once built; sharing the slices is safe.
	for t, tr := range p.traceCache {
		st.traces[t] = tr
	}
	return st
}

// RestoreState implements sim.Snapshotter.
func (p *Profiler) RestoreState(state sim.State) {
	st := state.(*profilerState)
	st.samples.restoreInto(p.Samples)
	st.addr.restoreInto(p.AddrSet)
	st.col.restoreInto(p.Collector)
	for i := range p.pending {
		p.pending[i] = append(p.pending[i][:0], st.pending[i]...)
	}
	p.sampling = st.sampling
	if ps := st.pipe; ps != nil {
		pipe := p.pipe
		pipe.index = ps.index
		pipe.start = ps.start
		if ps.hasDelta {
			if pipe.delta == nil {
				pipe.delta = NewSampleTable()
			}
			ps.delta.restoreInto(pipe.delta)
		} else {
			pipe.delta = nil
		}
		clear(pipe.snaps[ps.snapsLen:]) // the later windows, as for histories
		pipe.snaps = pipe.snaps[:ps.snapsLen]
	}
	p.traceCache = make(map[*TypeDesc][]*PathTrace, len(st.traces))
	for t, tr := range st.traces {
		p.traceCache[t] = tr
	}
}

// bytes is the state's resident size.
func (s *sampleTableState) bytes() uint64 { return sim.SliceBytes(s.entries) }

// bytes is the state's resident size, the full record blocks it shares
// with the live set included: the checkpoint keeps them alive.
func (st *addrSetState) bytes() uint64 {
	return sim.SliceBytes(st.recs) + uint64(len(st.recs))*uint64(unsafe.Sizeof(recBlock{})) +
		sim.SliceBytes(st.tail) + sim.SliceBytes(st.free) + st.liveIdx.Bytes() +
		sim.SliceBytes(st.types) + sim.SliceBytes(st.usage) + sim.SliceBytes(st.mtf)
}

// bytes is the state's resident size.
func (st *collectorState) bytes() uint64 {
	n := sim.SliceBytes(st.col.queue) + sim.SliceBytes(st.activeElems) + sim.MapBytes(st.byTypeLens) + sim.MapBytes(st.stats)
	for _, cs := range st.stats {
		n += sim.MapBytes(cs.Overhead) + sim.MapBytes(cs.overheadStart)
	}
	return n
}

// Bytes implements sim.State.
func (st *profilerState) Bytes() uint64 {
	n := uint64(unsafe.Sizeof(*st)) + st.samples.bytes() + st.addr.bytes() + st.col.bytes() +
		sim.SliceBytes(st.pending) + sim.MapBytes(st.traces)
	for _, buf := range st.pending {
		n += sim.SliceBytes(buf)
	}
	if st.pipe != nil {
		n += uint64(unsafe.Sizeof(*st.pipe)) + st.pipe.delta.bytes()
	}
	return n
}

// Release implements sim.Releaser: it drops the sample table's map and
// releases the address set's FreeAt columns, unshared record blocks and
// live index (AddressSet.release).
func (p *Profiler) Release() {
	p.Samples.byKey = nil
	p.AddrSet.release()
}

// DenseBytes implements sim.Releaser.
func (p *Profiler) DenseBytes() uint64 {
	return p.Samples.denseBytes() + p.AddrSet.denseBytes()
}

// LiveBytes implements sim.Snapshotter: the profiler's tables, sample
// table, address set, collector with its histories, per-core sample
// buffers, window pipeline and path traces.
func (p *Profiler) LiveBytes() uint64 {
	n := uint64(unsafe.Sizeof(*p)) + p.Samples.liveBytes() + p.AddrSet.liveBytes() +
		p.Collector.liveBytes() + sim.MapBytes(p.types.byName) + sim.SliceBytes(p.types.order) +
		uint64(len(p.types.order))*uint64(unsafe.Sizeof(TypeDesc{})) + sim.SliceBytes(p.descs) +
		sim.MapBytes(p.mems) + sim.SliceBytes(p.pending) + sim.MapBytes(p.traceCache)
	for _, buf := range p.pending {
		n += sim.SliceBytes(buf)
	}
	for _, trs := range p.traceCache {
		n += sim.SliceBytes(trs)
		for _, tr := range trs {
			n += uint64(unsafe.Sizeof(*tr)) + sim.SliceBytes(tr.Steps)
		}
	}
	if pipe := p.pipe; pipe != nil {
		n += uint64(unsafe.Sizeof(*pipe)) + sim.SliceBytes(pipe.snaps)
		if pipe.delta != nil {
			n += pipe.delta.liveBytes()
		}
		for _, ws := range pipe.snaps {
			n += uint64(unsafe.Sizeof(*ws)) + sim.MapBytes(ws.Views)
			if ws.Delta != nil {
				n += ws.Delta.liveBytes()
			}
			for _, v := range ws.Views {
				n += uint64(cap(v))
			}
		}
	}
	return n
}

// liveBytes is the collector's resident size: its queue, tables and every
// history it keeps.
func (col *Collector) liveBytes() uint64 {
	n := uint64(unsafe.Sizeof(*col)) + sim.SliceBytes(col.queue) + sim.MapBytes(col.byType) +
		sim.SliceBytes(col.order) + sim.MapBytes(col.stats)
	for _, hs := range col.byType {
		n += sim.SliceBytes(hs)
		for _, h := range hs {
			n += uint64(unsafe.Sizeof(*h)) + sim.SliceBytes(h.Offsets) + sim.SliceBytes(h.Elems)
		}
	}
	for _, cs := range col.stats {
		n += uint64(unsafe.Sizeof(*cs)) + sim.MapBytes(cs.Overhead) + sim.MapBytes(cs.overheadStart)
	}
	return n
}
