package lockstat

import (
	"unsafe"

	"dprof/internal/sim"
)

// Snapshot support for warm-start forks. A Lock's state is owner-side: the
// component that owns a Lock keeps it by value and copies it whole
// alongside its own state (class and address never change, so writing them
// back is a no-op). There is deliberately no global instance registry: the
// kernel gives every connection its own lock, in a connection arena slot
// that is reused, and the owner's copy is all a checkpoint needs. Class
// statistics live in the Registry, whose checkpoint is a deep copy
// restorable any number of times.

// RegistryState is a deep copy of every class's statistics, in registration
// order. Classes are append-only, so restoring by prefix position is exact:
// classes created after the checkpoint keep existing but are rewound to zero
// (the state they had before the checkpoint, i.e. nonexistent-as-zero).
type RegistryState struct {
	classes []classState
}

type classState struct {
	acquisitions uint64
	contentions  uint64
	waitCycles   uint64
	holdCycles   uint64
	sites        []siteCount
}

// Checkpoint deep-copies the registry's statistics.
func (r *Registry) Checkpoint() RegistryState {
	st := RegistryState{classes: make([]classState, len(r.order))}
	for i, c := range r.order {
		st.classes[i] = classState{
			acquisitions: c.Acquisitions,
			contentions:  c.Contentions,
			waitCycles:   c.WaitCycles,
			holdCycles:   c.HoldCycles,
			sites:        append([]siteCount(nil), c.sites...),
		}
	}
	return st
}

// Bytes is the checkpoint's resident size: its class array and every
// class's site counts.
func (st *RegistryState) Bytes() uint64 {
	n := sim.SliceBytes(st.classes)
	for i := range st.classes {
		n += sim.SliceBytes(st.classes[i].sites)
	}
	return n
}

// LiveBytes is the registry's resident size: its index, and every class
// with its site counts. Locks belong to their owners.
func (r *Registry) LiveBytes() uint64 {
	n := uint64(unsafe.Sizeof(*r)) + sim.MapBytes(r.classes) + sim.SliceBytes(r.order)
	for _, c := range r.order {
		n += uint64(unsafe.Sizeof(*c)) + uint64(len(c.Name)) + sim.SliceBytes(c.sites)
	}
	return n
}

// Restore rewinds the registry to a checkpoint taken from it. Classes
// registered after the checkpoint are zeroed, not removed (live Lock
// instances may point at them).
func (r *Registry) Restore(st RegistryState) {
	for i, c := range r.order {
		if i < len(st.classes) {
			cs := &st.classes[i]
			c.Acquisitions = cs.acquisitions
			c.Contentions = cs.contentions
			c.WaitCycles = cs.waitCycles
			c.HoldCycles = cs.holdCycles
			c.sites = append(c.sites[:0], cs.sites...)
		} else {
			c.Acquisitions, c.Contentions, c.WaitCycles, c.HoldCycles = 0, 0, 0, 0
			c.sites = nil
		}
	}
}
