package oprofile

import (
	"unsafe"

	"dprof/internal/sim"
	"dprof/internal/sym"
)

// Profiler implements sim.Snapshotter so a warm-start checkpoint taken while
// collection is running (table 6.3 profiles across the whole run) restores
// the per-function counters exactly.

// profState copies the profiler whole, its map (nil in the copy) as
// counter values.
type profState struct {
	prof Profiler
	fns  map[sym.PC]fnStats
}

// Bytes implements sim.State.
func (st *profState) Bytes() uint64 { return uint64(unsafe.Sizeof(*st)) + sim.MapBytes(st.fns) }

// LiveBytes implements sim.Snapshotter: the profiler, its function table
// and one counter block per function.
func (p *Profiler) LiveBytes() uint64 {
	return uint64(unsafe.Sizeof(*p)) + sim.MapBytes(p.fns) + uint64(len(p.fns))*uint64(unsafe.Sizeof(fnStats{}))
}

// SnapshotState implements sim.Snapshotter.
func (p *Profiler) SnapshotState() sim.State {
	st := &profState{prof: *p, fns: make(map[sym.PC]fnStats, len(p.fns))}
	st.prof.fns = nil
	for pc, s := range p.fns {
		st.fns[pc] = *s
	}
	return st
}

// RestoreState implements sim.Snapshotter.
func (p *Profiler) RestoreState(state sim.State) {
	st := state.(*profState)
	*p = st.prof
	p.fns = make(map[sym.PC]*fnStats, len(st.fns))
	for pc, s := range st.fns {
		cp := s
		p.fns[pc] = &cp
	}
}
