package mem

import (
	"dprof/internal/hashtab"
	"dprof/internal/lockstat"
)

// Allocator implements sim.Snapshotter (registered by BindMachine): a warm
// checkpoint captures every pool's array caches, slab freelists, carving
// cursors, and counters, plus the lock registry's class statistics — the
// whole simulated memory subsystem. Slab bookkeeping objects keep pointer
// identity across Restore (partial lists and the page table reference them),
// so a snapshot may only be restored into the allocator it was taken from,
// matching sim.Snapshot's machine-bound semantics.

type allocState struct {
	pools []poolState // by typeOrder index; zero value for non-pool types
	slabs map[*slabInfo]slabState
	pages hashtab.Snapshot[*slabInfo]

	nextSlab   uint64
	nextMeta   uint64
	nextStatic uint64
	nextNode   int

	carve     map[*Type]*slabInfo
	nStatics  int
	nInternal int
	nTypes    int

	watch    map[*Type][]AllocWatcher
	nOnAlloc int
	nOnFree  int

	locks lockstat.RegistryState
}

type poolState struct {
	perCPU  [][]uint64
	alien   [][]uint64
	partial []*slabInfo
	slabs   int
	live    uint64
	peak    uint64
	alloc   uint64
	frees   uint64
	lock    lockstat.LockState
}

type slabState struct {
	free  []uint64
	inuse int
}

// SnapshotState deep-copies the allocator's mutable state.
func (a *Allocator) SnapshotState() any {
	st := &allocState{
		pools:      make([]poolState, len(a.typeOrder)),
		slabs:      make(map[*slabInfo]slabState),
		pages:      a.slabMap.Capture(),
		nextSlab:   a.nextSlab,
		nextMeta:   a.nextMeta,
		nextStatic: a.nextStatic,
		nextNode:   a.nextNode,
		carve:      make(map[*Type]*slabInfo, len(a.carve)),
		nStatics:   len(a.statics),
		nInternal:  len(a.internalObjs),
		nTypes:     len(a.typeOrder),
		watch:      make(map[*Type][]AllocWatcher, len(a.watch)),
		nOnAlloc:   len(a.onAlloc),
		nOnFree:    len(a.onFree),
		locks:      a.locks.Checkpoint(),
	}
	snapSlab := func(s *slabInfo) {
		if _, ok := st.slabs[s]; !ok {
			st.slabs[s] = slabState{free: append([]uint64(nil), s.free...), inuse: s.inuse}
		}
	}
	for _, s := range a.slabMap.All() {
		snapSlab(s)
	}
	for i, t := range a.typeOrder {
		p := t.pool
		if p == nil {
			continue
		}
		ps := &st.pools[i]
		ps.perCPU = make([][]uint64, len(p.perCPU))
		for j, ac := range p.perCPU {
			ps.perCPU[j] = append([]uint64(nil), ac.objs...)
		}
		ps.alien = make([][]uint64, len(p.alien))
		for j, ac := range p.alien {
			ps.alien[j] = append([]uint64(nil), ac.objs...)
		}
		ps.partial = append([]*slabInfo(nil), p.partial...)
		ps.slabs = p.slabs
		ps.live, ps.peak, ps.alloc, ps.frees = p.live, p.peak, p.alloc, p.frees
		ps.lock = p.lock.State()
	}
	for t, s := range a.carve {
		st.carve[t] = s
	}
	for t, ws := range a.watch {
		st.watch[t] = append([]AllocWatcher(nil), ws...)
	}
	return st
}

// RestoreState rewinds the allocator to a state captured by SnapshotState.
// Types registered after the checkpoint keep existing but their pools are
// emptied (a deterministic re-run re-populates them the same way a cold run
// first populated them).
func (a *Allocator) RestoreState(state any) {
	st := state.(*allocState)
	a.slabMap.Restore(&st.pages)
	a.nextSlab = st.nextSlab
	a.nextMeta = st.nextMeta
	a.nextStatic = st.nextStatic
	a.nextNode = st.nextNode
	for s, ss := range st.slabs {
		s.free = append(s.free[:0], ss.free...)
		s.inuse = ss.inuse
	}
	for i, t := range a.typeOrder {
		p := t.pool
		if p == nil {
			continue
		}
		if i >= st.nTypes {
			for _, ac := range p.perCPU {
				ac.objs = ac.objs[:0]
			}
			for _, ac := range p.alien {
				ac.objs = ac.objs[:0]
			}
			p.partial = nil
			p.slabs = 0
			p.live, p.peak, p.alloc, p.frees = 0, 0, 0, 0
			continue
		}
		ps := &st.pools[i]
		for j, ac := range p.perCPU {
			ac.objs = append(ac.objs[:0], ps.perCPU[j]...)
		}
		for j, ac := range p.alien {
			ac.objs = append(ac.objs[:0], ps.alien[j]...)
		}
		p.partial = append(p.partial[:0], ps.partial...)
		p.slabs = ps.slabs
		p.live, p.peak, p.alloc, p.frees = ps.live, ps.peak, ps.alloc, ps.frees
		p.lock.SetState(ps.lock)
	}
	a.statics = a.statics[:st.nStatics]
	a.internalObjs = a.internalObjs[:st.nInternal]
	for t := range a.carve {
		delete(a.carve, t)
	}
	for t, s := range st.carve {
		a.carve[t] = s
	}
	for t := range a.watch {
		delete(a.watch, t)
	}
	for t, ws := range st.watch {
		a.watch[t] = append([]AllocWatcher(nil), ws...)
	}
	a.onAlloc = a.onAlloc[:st.nOnAlloc]
	a.onFree = a.onFree[:st.nOnFree]
	a.locks.Restore(st.locks)
}
