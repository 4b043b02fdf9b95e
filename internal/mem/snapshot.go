package mem

import (
	"unsafe"

	"dprof/internal/hashtab"
	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// Allocator implements sim.Snapshotter (registered by BindMachine): a warm
// checkpoint captures every pool's array caches, slab freelists, carving
// cursors, and counters, plus the lock registry's class statistics — the
// whole simulated memory subsystem. Slab bookkeeping objects keep pointer
// identity across Restore (partial lists and the page table reference them),
// so a snapshot may only be restored into the allocator it was taken from,
// matching sim.Snapshot's machine-bound semantics.
//
// It is also a sim.Releaser: RestoreState rewrites the page table and every
// slab's freelist in full, so a parked allocator hands both to recyclers.

// Recyclers for the arrays Release drops. A pool slab's freelist has room
// for every object of the slab, so freelists of one object count are
// interchangeable.
var (
	slabMapArrays hashtab.Recycler[hashtab.Entry[*slabInfo]]
	slabFrees     hashtab.Recycler[uint64]
)

type allocState struct {
	pools []poolState // by typeOrder index; zero value for non-pool types
	slabs []slabState // every slab in the page table, once
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

// poolState copies the pool whole, its lock and counters included, with
// its partial list copied and its array caches' contents beside it.
type poolState struct {
	pool   pool
	perCPU [][]uint64
	alien  [][]uint64
}

type slabState struct {
	s     *slabInfo
	free  []uint64
	inuse int
}

// slabInfoBytes is the size of one slab's bookkeeping object.
const slabInfoBytes = uint64(unsafe.Sizeof(slabInfo{}))

// Bytes implements sim.State: the state's arrays and maps, and the slab
// bookkeeping objects it keeps for RestoreState to write through.
func (st *allocState) Bytes() uint64 {
	n := uint64(unsafe.Sizeof(*st)) + sim.SliceBytes(st.pools) + sim.SliceBytes(st.slabs) +
		uint64(len(st.slabs))*slabInfoBytes + st.pages.Bytes() + sim.MapBytes(st.carve) +
		sim.MapBytes(st.watch) + st.locks.Bytes()
	for i := range st.pools {
		ps := &st.pools[i]
		n += sim.SliceBytes(ps.perCPU) + sim.SliceBytes(ps.alien) + sim.SliceBytes(ps.pool.partial)
		for _, objs := range ps.perCPU {
			n += sim.SliceBytes(objs)
		}
		for _, objs := range ps.alien {
			n += sim.SliceBytes(objs)
		}
	}
	for i := range st.slabs {
		n += sim.SliceBytes(st.slabs[i].free)
	}
	for _, ws := range st.watch {
		n += sim.SliceBytes(ws)
	}
	return n
}

// LiveBytes implements sim.Snapshotter: the allocator's tables, every type
// with its pool, array caches and lock, the lock registry, and the slab
// bookkeeping with its freelists. A released allocator keeps neither the
// page table nor the freelists, and its slabs are reachable only through
// the snapshot, which counts them.
func (a *Allocator) LiveBytes() uint64 {
	n := uint64(unsafe.Sizeof(*a)) + sim.MapBytes(a.types) + sim.SliceBytes(a.typeOrder) +
		sim.MapBytes(a.carve) + sim.SliceBytes(a.statics) + sim.SliceBytes(a.internalObjs) +
		sim.SliceBytes(a.onAlloc) + sim.SliceBytes(a.onFree) + sim.MapBytes(a.watch) +
		a.locks.LiveBytes() + a.DenseBytes()
	for _, t := range a.typeOrder {
		n += uint64(unsafe.Sizeof(*t)) + uint64(len(t.Name)+len(t.Desc))
		p := t.pool
		if p == nil {
			continue
		}
		n += uint64(unsafe.Sizeof(*p)) + sim.SliceBytes(p.perCPU) +
			sim.SliceBytes(p.alien) + sim.SliceBytes(p.partial)
		for _, ac := range p.perCPU {
			n += uint64(unsafe.Sizeof(*ac)) + sim.SliceBytes(ac.objs)
		}
		for _, ac := range p.alien {
			n += uint64(unsafe.Sizeof(*ac)) + sim.SliceBytes(ac.objs)
		}
	}
	if !a.released {
		slabs := (a.nextSlab-slabBase)/SlabBytes + (a.nextMeta-internalBase)/SlabBytes + uint64(len(a.statics))
		n += slabs * slabInfoBytes
	}
	return n
}

// DenseBytes implements sim.Releaser: the page table and every pool
// slab's freelist. It is zero once released.
func (a *Allocator) DenseBytes() uint64 {
	n := a.slabMap.DenseBytes()
	if !a.released {
		for _, t := range a.typeOrder {
			if p := t.pool; p != nil {
				n += uint64(p.slabs) * (SlabBytes / t.objSize) * 8
			}
		}
	}
	return n
}

// Release implements sim.Releaser: it hands the page table and every
// slab's freelist to their recyclers. The allocator is unusable until the
// next RestoreState, which takes arrays back.
func (a *Allocator) Release() {
	for _, s := range a.slabMap.All() {
		if s.free != nil {
			slabFrees.Put(s.free[:cap(s.free)])
			s.free = nil
		}
	}
	a.slabMap.Release()
	a.released = true
}

// SnapshotState deep-copies the allocator's mutable state.
func (a *Allocator) SnapshotState() sim.State {
	st := &allocState{
		pools:      make([]poolState, len(a.typeOrder)),
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
	// A multi-page static slab maps every page it covers; it is captured
	// at its first.
	for pg, s := range a.slabMap.All() {
		if pg == s.base>>SlabShift {
			st.slabs = append(st.slabs, slabState{s: s, free: append([]uint64(nil), s.free...), inuse: s.inuse})
		}
	}
	for i, t := range a.typeOrder {
		p := t.pool
		if p == nil {
			continue
		}
		ps := &st.pools[i]
		ps.pool = *p
		ps.pool.partial = append([]*slabInfo(nil), p.partial...)
		ps.perCPU = make([][]uint64, len(p.perCPU))
		for j, ac := range p.perCPU {
			ps.perCPU[j] = append([]uint64(nil), ac.objs...)
		}
		ps.alien = make([][]uint64, len(p.alien))
		for j, ac := range p.alien {
			ps.alien[j] = append([]uint64(nil), ac.objs...)
		}
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
func (a *Allocator) RestoreState(state sim.State) {
	st := state.(*allocState)
	a.slabMap.Restore(&st.pages)
	a.nextSlab = st.nextSlab
	a.nextMeta = st.nextMeta
	a.nextStatic = st.nextStatic
	a.nextNode = st.nextNode
	for _, ss := range st.slabs {
		s := ss.s
		if s.free == nil && s.t.pool != nil {
			s.free = slabFrees.Get(s.nobj)
		}
		s.free = append(s.free[:0], ss.free...)
		s.inuse = ss.inuse
	}
	a.released = false
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
		partial := append(p.partial[:0], ps.pool.partial...)
		*p = ps.pool
		p.partial = partial
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
