package core

import (
	"sort"

	"dprof/internal/hashtab"
)

// ObjRecord is one allocation in the address set: the address and type of an
// object plus its lifetime (§4, "address set").
type ObjRecord struct {
	Type      *TypeDesc
	Addr      uint64
	AllocAt   uint64
	FreeAt    uint64 // 0 while live
	AllocCore int32
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

// AddressSet records the address and type of every object allocated during
// profiling, plus static objects. DProf uses it to map objects to cache
// associativity sets and to estimate working-set contents.
type AddressSet struct {
	objects []ObjRecord
	liveIdx hashtab.Table[int] // addr -> index of the live record

	// usage is a move-to-front list rather than a map: a run touches a few
	// dozen types at most, and the lookup runs on every alloc and free.
	usage []typeUsageEntry

	start uint64
	end   uint64

	// MaxObjects caps the retained per-object records; accounting counters
	// keep running after the cap. 0 means unlimited.
	MaxObjects int
	dropped    uint64
}

type typeUsageEntry struct {
	t *TypeDesc
	u *typeUsage
}

// NewAddressSet returns an empty address set.
func NewAddressSet() *AddressSet {
	return &AddressSet{liveIdx: hashtab.New[int](3<<10, nil)} // 4096 slots
}

// AddStatic records a static (always-live) object.
func (as *AddressSet) AddStatic(t *TypeDesc, addr uint64) {
	as.objects = append(as.objects, ObjRecord{Type: t, Addr: addr, AllocCore: -1})
	as.liveIdx.Set(addr, len(as.objects)-1)
	u := as.usageFor(t)
	u.live++
	if u.live > u.peak {
		u.peak = u.live
	}
}

func (as *AddressSet) usageFor(t *TypeDesc) *typeUsage {
	s := as.usage
	for i := range s {
		if s[i].t == t {
			if i > 0 {
				s[0], s[i] = s[i], s[0]
			}
			return s[0].u
		}
	}
	u := &typeUsage{}
	as.usage = append(s, typeUsageEntry{t, u})
	return u
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
	u := as.usageFor(t)
	u.advance(now)
	u.allocs++
	u.live++
	if u.live > u.peak {
		u.peak = u.live
	}
	if as.MaxObjects > 0 && len(as.objects) >= as.MaxObjects {
		as.dropped++
		return
	}
	as.objects = append(as.objects, ObjRecord{
		Type:      t,
		Addr:      addr,
		AllocAt:   now,
		AllocCore: core,
	})
	as.liveIdx.Set(addr, len(as.objects)-1)
}

// RecordFree records a deallocation at time now.
func (as *AddressSet) RecordFree(now uint64, t *TypeDesc, addr uint64) {
	as.end = now
	u := as.usageFor(t)
	u.advance(now)
	u.frees++
	if u.live > 0 {
		u.live--
	}
	if i, ok := as.liveIdx.Delete(addr); ok {
		as.objects[i].FreeAt = now
	}
}

// Dropped returns how many records were discarded due to MaxObjects.
func (as *AddressSet) Dropped() uint64 { return as.dropped }

// Objects returns all retained records (most recent last).
func (as *AddressSet) Objects() []ObjRecord { return as.objects }

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
	out := make([]TypeUsage, 0, len(as.usage))
	for _, e := range as.usage {
		t, u := e.t, e.u
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
