package hw

import (
	"unsafe"

	"dprof/internal/sim"
)

// Warm-start snapshot support: each PMU unit registers itself as a
// sim.Snapshotter at attach time, so a machine checkpoint carries the
// sampling deadlines, enablement, and delivery counters a resumed measured
// phase depends on.

type ibsState struct {
	handler         IBSHandler
	enabled         bool
	interval        uint64
	next            []uint64
	interruptCycles uint64
	delivered       uint64
}

// Bytes implements sim.State.
func (st *ibsState) Bytes() uint64 { return uint64(unsafe.Sizeof(*st)) + sim.SliceBytes(st.next) }

// LiveBytes implements sim.Snapshotter.
func (u *IBS) LiveBytes() uint64 { return uint64(unsafe.Sizeof(*u)) + sim.SliceBytes(u.next) }

// SnapshotState implements sim.Snapshotter.
func (u *IBS) SnapshotState() sim.State {
	return &ibsState{
		handler:         u.handler,
		enabled:         u.enabled,
		interval:        u.interval,
		next:            append([]uint64(nil), u.next...),
		interruptCycles: u.InterruptCycles,
		delivered:       u.delivered,
	}
}

// RestoreState implements sim.Snapshotter.
func (u *IBS) RestoreState(state sim.State) {
	st := state.(*ibsState)
	u.handler = st.handler
	u.enabled = st.enabled
	u.interval = st.interval
	copy(u.next, st.next)
	u.InterruptCycles = st.interruptCycles
	u.delivered = st.delivered
}

type debugState struct {
	watches    [NumDebugRegs]Watch
	inUse      int
	handler    DebugHandler
	variable   bool
	trapCycles uint64
	traps      uint64
	setups     uint64
}

// Bytes implements sim.State.
func (st *debugState) Bytes() uint64 { return uint64(unsafe.Sizeof(*st)) }

// LiveBytes implements sim.Snapshotter.
func (d *DebugRegs) LiveBytes() uint64 { return uint64(unsafe.Sizeof(*d)) }

// SnapshotState implements sim.Snapshotter.
func (d *DebugRegs) SnapshotState() sim.State {
	return &debugState{
		watches:    d.watches,
		inUse:      d.inUse,
		handler:    d.handler,
		variable:   d.Variable,
		trapCycles: d.TrapCycles,
		traps:      d.traps,
		setups:     d.setups,
	}
}

// RestoreState implements sim.Snapshotter.
func (d *DebugRegs) RestoreState(state sim.State) {
	st := state.(*debugState)
	d.watches = st.watches
	d.inUse = st.inUse
	d.handler = st.handler
	d.Variable = st.variable
	d.TrapCycles = st.trapCycles
	d.traps = st.traps
	d.setups = st.setups
}

type pebsState struct {
	handler         IBSHandler
	enabled         bool
	interval        uint64
	next            []uint64
	threshold       uint32
	interruptCycles uint64
	delivered       uint64
	skipped         uint64
}

// Bytes implements sim.State.
func (st *pebsState) Bytes() uint64 { return uint64(unsafe.Sizeof(*st)) + sim.SliceBytes(st.next) }

// LiveBytes implements sim.Snapshotter.
func (p *PEBS) LiveBytes() uint64 { return uint64(unsafe.Sizeof(*p)) + sim.SliceBytes(p.next) }

// SnapshotState implements sim.Snapshotter.
func (p *PEBS) SnapshotState() sim.State {
	return &pebsState{
		handler:         p.handler,
		enabled:         p.enabled,
		interval:        p.interval,
		next:            append([]uint64(nil), p.next...),
		threshold:       p.LatencyThreshold,
		interruptCycles: p.InterruptCycles,
		delivered:       p.delivered,
		skipped:         p.skipped,
	}
}

// RestoreState implements sim.Snapshotter.
func (p *PEBS) RestoreState(state sim.State) {
	st := state.(*pebsState)
	p.handler = st.handler
	p.enabled = st.enabled
	p.interval = st.interval
	copy(p.next, st.next)
	p.LatencyThreshold = st.threshold
	p.InterruptCycles = st.interruptCycles
	p.delivered = st.delivered
	p.skipped = st.skipped
}
