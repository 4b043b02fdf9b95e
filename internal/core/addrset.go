package core

import (
	"sort"
	"unsafe"

	"dprof/internal/hashtab"
	"dprof/internal/sim"
)

// ObjRecord is one allocation in the address set: the address and type of an
// object plus its lifetime (§4, "address set"). Type indexes the set's
// Types, so a record holds no pointer and is 32 bytes.
type ObjRecord struct {
	Addr      uint64
	AllocAt   uint64
	FreeAt    uint64 // 0 while live
	AllocCore int32
	Type      uint32
}

// Live reports whether the object was still allocated when profiling ended.
func (r *ObjRecord) Live() bool { return r.FreeAt == 0 }

// typeUsage tracks a type's live-object accounting over time.
type typeUsage struct {
	live      uint64
	peak      uint64
	allocs    uint64
	frees     uint64
	liveInt   uint64 // integral of live count over time (for averages)
	lastTouch uint64
}

// Records are stored in fixed chunks of chunkLen, appended in place and
// never moved: record i is entry i&chunkMask of chunk i>>chunkShift.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// objFixed is the part of a record that never changes once written.
type objFixed struct {
	addr    uint64
	allocAt uint64
	core    int32
	typ     uint32
}

// recBlock holds one chunk's fixed fields. A full block is never written
// again, so checkpoints share it with the live set (see snapshot.go).
type recBlock [chunkLen]objFixed

// freeBlock is one chunk's FreeAt column, the only field a free mutates.
// The live set owns its columns; checkpoints copy them.
type freeBlock [chunkLen]uint64

// Recyclers for the arrays a parked set releases (see release): record
// blocks, FreeAt columns and live-index tables.
var (
	recBlocks     hashtab.Recycler[recBlock]
	freeBlocks    hashtab.Recycler[freeBlock]
	liveIdxArrays hashtab.Recycler[hashtab.Entry[int]]
)

// chunk is one slot of the live set: a fixed-field block, possibly shared
// with checkpoints, and the set's own FreeAt column for it.
type chunk struct {
	recs *recBlock
	free *freeBlock
}

// AddressSet records the address and type of every object allocated during
// profiling, plus static objects. DProf uses it to map objects to cache
// associativity sets and to estimate working-set contents.
type AddressSet struct {
	chunks []chunk
	n      int // retained records
	// owned is the first chunk slot from which every block is the set's
	// alone: blocks below it may be shared with checkpoints.
	owned   int
	liveIdx hashtab.Table[int] // addr -> index of the live record

	// types holds the descriptors records refer to, in first-recorded
	// order; usage is parallel to it. mtf orders the type indexes
	// move-to-front rather than through a map: a run touches a few dozen
	// types at most, and the lookup runs on every alloc and free.
	types []*TypeDesc
	usage []typeUsage
	mtf   []uint32

	start uint64
	end   uint64

	// MaxObjects caps the retained per-object records; accounting counters
	// keep running after the cap. 0 means unlimited, and a negative value
	// (NoAddrRecords) keeps no records at all, statics included: only the
	// per-type usage counters run.
	MaxObjects int
	dropped    uint64
}

// NoAddrRecords is the MaxObjects (and Config.MaxAddrRecords) value that
// keeps no per-object records. Dropped then counts every allocation.
const NoAddrRecords = -1

// NewAddressSet returns an empty address set.
func NewAddressSet() *AddressSet {
	return &AddressSet{liveIdx: hashtab.New(3<<10, &liveIdxArrays)} // 4096 slots
}

// AddStatic records a static (always-live) object.
func (as *AddressSet) AddStatic(t *TypeDesc, addr uint64) {
	ti := as.typeIndex(t)
	if as.MaxObjects >= 0 {
		as.push(objFixed{addr: addr, core: -1, typ: ti})
		as.liveIdx.Set(addr, as.n-1)
	}
	u := &as.usage[ti]
	u.live++
	if u.live > u.peak {
		u.peak = u.live
	}
}

// typeIndex returns t's index in the set, adding it on first use.
func (as *AddressSet) typeIndex(t *TypeDesc) uint32 {
	s := as.mtf
	for i, ti := range s {
		if as.types[ti] == t {
			if i > 0 {
				s[0], s[i] = s[i], s[0]
			}
			return ti
		}
	}
	ti := uint32(len(as.types))
	as.types = append(as.types, t)
	as.usage = append(as.usage, typeUsage{})
	as.mtf = append(s, ti)
	return ti
}

// push appends a record with FreeAt 0, starting a chunk slot when the last
// one is full.
func (as *AddressSet) push(r objFixed) {
	c, j := as.n>>chunkShift, as.n&chunkMask
	if c == len(as.chunks) {
		as.chunks = append(as.chunks, chunk{})
	}
	ch := &as.chunks[c]
	if ch.recs == nil {
		ch.recs = recBlocks.GetOne()
	}
	if ch.free == nil {
		ch.free = freeBlocks.GetOne()
	}
	ch.recs[j] = r
	ch.free[j] = 0
	as.n++
}

// advance accrues the live-count integral for a type up to time now. Only
// allocation and free events may advance the clock: core clocks are not
// globally monotonic, so a read fast-forwarding lastTouch past a lagging
// core's next event would mis-account that event's segment.
func (u *typeUsage) advance(now uint64) {
	if now > u.lastTouch {
		u.liveInt += u.live * (now - u.lastTouch)
		u.lastTouch = now
	}
}

// integralAt returns the live-count integral extended to time now without
// mutating the accrual state, so views can read usage mid-run (window
// snapshots) without perturbing later accounting.
func (u *typeUsage) integralAt(now uint64) uint64 {
	if now > u.lastTouch {
		return u.liveInt + u.live*(now-u.lastTouch)
	}
	return u.liveInt
}

// RecordAlloc records an allocation at time now on the given core. The
// simulator wires this to the allocator's alloc hook; ingestion records
// synthetic allocations for observed address regions.
func (as *AddressSet) RecordAlloc(now uint64, core int32, t *TypeDesc, addr uint64) {
	if as.start == 0 {
		as.start = now
	}
	as.end = now
	ti := as.typeIndex(t)
	u := &as.usage[ti]
	u.advance(now)
	u.allocs++
	u.live++
	if u.live > u.peak {
		u.peak = u.live
	}
	// A negative cap (NoAddrRecords) is below every n.
	if as.MaxObjects != 0 && as.n >= as.MaxObjects {
		as.dropped++
		return
	}
	as.push(objFixed{addr: addr, allocAt: now, core: core, typ: ti})
	as.liveIdx.Set(addr, as.n-1)
}

// RecordFree records a deallocation at time now.
func (as *AddressSet) RecordFree(now uint64, t *TypeDesc, addr uint64) {
	as.end = now
	u := &as.usage[as.typeIndex(t)]
	u.advance(now)
	u.frees++
	if u.live > 0 {
		u.live--
	}
	// With no live record (none kept, or every kept one freed) the free
	// cannot be indexed: skip the probe.
	if as.liveIdx.Len() == 0 {
		return
	}
	if i, ok := as.liveIdx.Delete(addr); ok {
		as.chunks[i>>chunkShift].free[i&chunkMask] = now
	}
}

// release hands every array that a restore rewrites in full to its
// recycler: each FreeAt column, the record blocks from slot owned on (those
// below may be shared with checkpoints, which keep them), and the live
// index. The set is unusable until the next restoreInto.
func (as *AddressSet) release() {
	for c := range as.chunks {
		ch := &as.chunks[c]
		if ch.free != nil {
			freeBlocks.PutOne(ch.free)
			ch.free = nil
		}
		if c >= as.owned && ch.recs != nil {
			recBlocks.PutOne(ch.recs)
			ch.recs = nil
		}
	}
	as.liveIdx.Release()
}

// denseBytes is the size of what release drops; zero once released.
func (as *AddressSet) denseBytes() uint64 {
	n := as.liveIdx.DenseBytes()
	for c := range as.chunks {
		ch := &as.chunks[c]
		if ch.free != nil {
			n += uint64(unsafe.Sizeof(freeBlock{}))
		}
		if c >= as.owned && ch.recs != nil {
			n += uint64(unsafe.Sizeof(recBlock{}))
		}
	}
	return n
}

// liveBytes is the set's resident size, less the record blocks below owned,
// which the checkpoint that shares them counts.
func (as *AddressSet) liveBytes() uint64 {
	return uint64(unsafe.Sizeof(*as)) + sim.SliceBytes(as.chunks) + as.denseBytes() +
		sim.SliceBytes(as.types) + sim.SliceBytes(as.usage) + sim.SliceBytes(as.mtf)
}

// Dropped returns how many allocations' records were discarded due to
// MaxObjects: those past a positive cap, or all of them under NoAddrRecords.
// Statics are never counted.
func (as *AddressSet) Dropped() uint64 { return as.dropped }

// Len returns the number of retained records.
func (as *AddressSet) Len() int { return as.n }

// At returns retained record i (0 ≤ i < Len, oldest first).
func (as *AddressSet) At(i int) ObjRecord {
	ch := &as.chunks[i>>chunkShift]
	f := &ch.recs[i&chunkMask]
	return ObjRecord{Addr: f.addr, AllocAt: f.allocAt, FreeAt: ch.free[i&chunkMask], AllocCore: f.core, Type: f.typ}
}

// Types returns the descriptors that records' Type fields index.
func (as *AddressSet) Types() []*TypeDesc { return as.types }

// TypeUsage summarizes one type's footprint.
type TypeUsage struct {
	Type      *TypeDesc
	PeakCount uint64
	PeakBytes uint64
	AvgCount  float64
	AvgBytes  float64
	LiveCount uint64
	Allocs    uint64
	Frees     uint64
}

// Usage returns per-type footprint summaries, largest peak bytes first.
func (as *AddressSet) Usage() []TypeUsage {
	span := as.end - as.start
	out := make([]TypeUsage, 0, len(as.mtf))
	for _, ti := range as.mtf {
		t, u := as.types[ti], &as.usage[ti]
		tu := TypeUsage{
			Type:      t,
			PeakCount: u.peak,
			PeakBytes: u.peak * t.ObjSize,
			LiveCount: u.live,
			Allocs:    u.allocs,
			Frees:     u.frees,
		}
		if span > 0 {
			tu.AvgCount = float64(u.integralAt(as.end)) / float64(span)
			tu.AvgBytes = tu.AvgCount * float64(t.ObjSize)
		} else {
			tu.AvgCount = float64(u.live)
			tu.AvgBytes = float64(u.live * t.ObjSize)
		}
		out = append(out, tu)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PeakBytes != out[j].PeakBytes {
			return out[i].PeakBytes > out[j].PeakBytes
		}
		return out[i].Type.Name < out[j].Type.Name
	})
	return out
}

// UsageFor returns the footprint summary for one type.
func (as *AddressSet) UsageFor(t *TypeDesc) TypeUsage {
	for _, u := range as.Usage() {
		if u.Type == t {
			return u
		}
	}
	return TypeUsage{Type: t}
}
