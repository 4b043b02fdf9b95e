package core

import (
	"reflect"
	"testing"

	"dprof/internal/cache"
)

// recorder drives an address set with distinct allocations: every call
// gets a fresh address and a later time, and types and cores rotate.
type recorder struct {
	as    *AddressSet
	types []*TypeDesc
	seq   uint64
}

// addrOf is the address of the allocation recorded at time seq.
func addrOf(seq uint64) uint64 { return 0x4000_0000 + seq*512 }

func newRecorder(as *AddressSet) *recorder {
	return &recorder{as: as, types: []*TypeDesc{
		{Name: "a", ObjSize: 64},
		{Name: "b", ObjSize: 128},
		{Name: "c", ObjSize: 256},
	}}
}

// alloc records n allocations.
func (r *recorder) alloc(n int) {
	for range n {
		r.seq++
		r.as.RecordAlloc(r.seq, int32(r.seq%5), r.types[r.seq%3], addrOf(r.seq))
	}
}

// free frees retained record i and returns the time it recorded.
func (r *recorder) free(i int) uint64 {
	r.seq++
	rec := r.as.At(i)
	r.as.RecordFree(r.seq, r.as.Types()[rec.Type], rec.Addr)
	return r.seq
}

func records(as *AddressSet) []ObjRecord {
	out := make([]ObjRecord, as.Len())
	for i := range out {
		out[i] = as.At(i)
	}
	return out
}

// sameSet fails unless as holds exactly want's records (field by field),
// types, usage and drop count.
func sameSet(t *testing.T, what string, as *AddressSet, want []ObjRecord, wantTypes []*TypeDesc, wantUsage []TypeUsage, wantDropped uint64) {
	t.Helper()
	if as.Len() != len(want) {
		t.Fatalf("%s: %d records, want %d", what, as.Len(), len(want))
	}
	for i, w := range want {
		if got := as.At(i); got != w {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got, w)
		}
	}
	if !reflect.DeepEqual(as.Types(), wantTypes) {
		t.Fatalf("%s: types differ", what)
	}
	if got := as.Usage(); !reflect.DeepEqual(got, wantUsage) {
		t.Fatalf("%s: usage = %+v, want %+v", what, got, wantUsage)
	}
	if as.Dropped() != wantDropped {
		t.Fatalf("%s: dropped %d, want %d", what, as.Dropped(), wantDropped)
	}
}

func TestAddressSetChunks(t *testing.T) {
	t.Run("boundary", func(t *testing.T) {
		r := newRecorder(NewAddressSet())
		r.alloc(chunkLen + 2)
		for _, i := range []int{chunkLen - 1, chunkLen, chunkLen + 1} {
			seq := uint64(i + 1)
			want := ObjRecord{Addr: addrOf(seq), AllocAt: seq, AllocCore: int32(seq % 5), Type: uint32(i % 3)}
			if got := r.as.At(i); got != want {
				t.Fatalf("record %d = %+v, want %+v", i, got, want)
			}
		}
		if len(r.as.chunks) != 2 {
			t.Fatalf("%d chunks, want 2", len(r.as.chunks))
		}
	})

	t.Run("cap", func(t *testing.T) {
		for _, limit := range []int{chunkLen, chunkLen + 1} {
			r := newRecorder(NewAddressSet())
			r.as.MaxObjects = limit
			r.alloc(limit + 3)
			if r.as.Len() != limit || r.as.Dropped() != 3 {
				t.Fatalf("cap %d: %d records, %d dropped; want %d, 3", limit, r.as.Len(), r.as.Dropped(), limit)
			}
			if got := r.as.At(limit - 1); got.AllocAt != uint64(limit) {
				t.Fatalf("cap %d: last record allocated at %d, want %d", limit, got.AllocAt, limit)
			}
			var allocs uint64
			for _, u := range r.as.Usage() {
				allocs += u.Allocs
			}
			if allocs != uint64(limit+3) {
				t.Fatalf("cap %d: usage counts %d allocs, want %d", limit, allocs, limit+3)
			}
		}
	})

	t.Run("free in a full chunk", func(t *testing.T) {
		r := newRecorder(NewAddressSet())
		r.alloc(2*chunkLen + 10)
		at := r.free(100)
		if got := r.as.At(100); got.FreeAt != at || got.Addr != addrOf(101) {
			t.Fatalf("freed record = %+v, want FreeAt %d", got, at)
		}
		for _, i := range []int{99, 101, chunkLen + 100, 2 * chunkLen} {
			if rec := r.as.At(i); !rec.Live() {
				t.Fatalf("record %d freed by a free of record 100", i)
			}
		}
	})

	// snap is a captured state with the records, types and usage it must
	// restore to.
	type snap struct {
		st      addrSetState
		recs    []ObjRecord
		types   []*TypeDesc
		usage   []TypeUsage
		dropped uint64
	}
	capture := func(as *AddressSet) snap {
		return snap{captureAddrSet(as), records(as), append([]*TypeDesc(nil), as.Types()...), as.Usage(), as.Dropped()}
	}
	restore := func(t *testing.T, what string, as *AddressSet, s snap) {
		t.Helper()
		s.st.restoreInto(as)
		sameSet(t, what, as, s.recs, s.types, s.usage, s.dropped)
	}

	t.Run("capture and restore", func(t *testing.T) {
		r := newRecorder(NewAddressSet())
		r.alloc(100)
		r.free(7)
		short := capture(r.as)
		r.alloc(3*chunkLen + 5 - 100)
		r.free(50)
		r.free(chunkLen + 3)
		r.free(3*chunkLen + 1)
		long := capture(r.as)
		r.alloc(chunkLen)
		r.free(2)
		r.free(3*chunkLen + 2)

		restore(t, "long after more records", r.as, long)
		restore(t, "short into longer", r.as, short)
		r.alloc(2*chunkLen + 50 - 100)
		r.free(3)
		restore(t, "long into shorter", r.as, long)
		// Grow past the long state with other records, so every chunk
		// slot it covers holds different data before it comes back.
		restore(t, "short into longer, again", r.as, short)
		r.alloc(4*chunkLen - 100)
		restore(t, "long over other records", r.as, long)
		restore(t, "long into an empty set", NewAddressSet(), long)
		restore(t, "short into an empty set", NewAddressSet(), short)
		restore(t, "short again", r.as, short)
	})

	t.Run("forks of one checkpoint", func(t *testing.T) {
		r := newRecorder(NewAddressSet())
		r.alloc(2*chunkLen + 300)
		cp := capture(r.as)
		// The first fork runs on in place, freeing records in full chunks
		// and in the tail, and allocating across a chunk boundary.
		for _, i := range []int{10, chunkLen + 10, 2*chunkLen + 10} {
			r.free(i)
		}
		r.alloc(chunkLen)
		restore(t, "second fork", r.as, cp)
		for _, i := range []int{20, chunkLen + 20, 2*chunkLen + 20} {
			r.free(i)
		}
		restore(t, "third fork", r.as, cp)
	})
}

// TestAddressSetNoRecords feeds one alloc/free stream, statics included, to
// a recording set and to a NoAddrRecords set: the usage counters must agree
// while the second set keeps, indexes and replays nothing.
func TestAddressSetNoRecords(t *testing.T) {
	ts := NewTypeSet()
	types := []*TypeDesc{
		ts.Intern("a", "", 64, 64),
		ts.Intern("b", "", 128, 128),
		ts.Intern("static", "", 4096, 4096),
	}
	full, none := NewAddressSet(), NewAddressSet()
	none.MaxObjects = NoAddrRecords
	both := func(f func(as *AddressSet)) { f(full); f(none) }

	const statics, allocs = 3, 2000
	for i := range statics {
		both(func(as *AddressSet) { as.AddStatic(types[2], 0x1000_0000+uint64(i)*4096) })
	}
	var now uint64
	for i := range allocs {
		now += 10
		typ, addr := types[i%2], addrOf(uint64(i))
		both(func(as *AddressSet) { as.RecordAlloc(now, int32(i%4), typ, addr) })
		if i%3 == 0 {
			now += 5
			both(func(as *AddressSet) { as.RecordFree(now, typ, addr) })
		}
	}
	// A free of an address no set ever saw.
	both(func(as *AddressSet) { as.RecordFree(now+1, types[0], 0x7777_0000) })

	if got, want := none.Usage(), full.Usage(); !reflect.DeepEqual(got, want) {
		t.Fatalf("usage = %+v, want %+v", got, want)
	}
	for _, typ := range types {
		if got, want := none.UsageFor(typ), full.UsageFor(typ); got != want {
			t.Fatalf("UsageFor(%s) = %+v, want %+v", typ.Name, got, want)
		}
	}
	if full.Len() != statics+allocs || full.Dropped() != 0 {
		t.Fatalf("recording set: %d records, %d dropped; want %d, 0", full.Len(), full.Dropped(), statics+allocs)
	}
	if none.Len() != 0 || none.liveIdx.Len() != 0 || len(none.chunks) != 0 {
		t.Fatalf("no-records set: %d records, %d indexed, %d chunks; want none", none.Len(), none.liveIdx.Len(), len(none.chunks))
	}
	if none.Dropped() != allocs {
		t.Fatalf("no-records set dropped %d, want every allocation (%d)", none.Dropped(), allocs)
	}

	cfg := cache.DefaultConfig()
	geo := GeometryFromCache(cfg)
	ws, wantWS := BuildWorkingSet(none, nil, geo, DefaultReplayObjects), BuildWorkingSet(full, nil, geo, DefaultReplayObjects)
	if ws.SampledObjects != 0 || ws.MeanLines != 0 || len(ws.Overloaded) != 0 {
		t.Fatalf("working set over no records: %d objects, %.2f mean lines, %d overloaded sets", ws.SampledObjects, ws.MeanLines, len(ws.Overloaded))
	}
	// The usage half of the view does not read records.
	if !reflect.DeepEqual(ws.Rows, wantWS.Rows) {
		t.Fatalf("working-set rows = %+v, want %+v", ws.Rows, wantWS.Rows)
	}
	rv := CacheResidencyOf(NewStaticProfile(ts, nil, none, nil, cfg, cache.SingleSocket(1)), DefaultReplayObjects)
	if rv.ReplayedObjs != 0 || len(rv.Rows) != 0 {
		t.Fatalf("residency over no records: %d objects, %d rows", rv.ReplayedObjs, len(rv.Rows))
	}

	st := captureAddrSet(none)
	wantTypes, wantUsage := append([]*TypeDesc(nil), none.Types()...), none.Usage()
	none.RecordAlloc(now+2, 0, types[1], 0x8888_0000)
	none.AddStatic(types[2], 0x9999_0000)
	st.restoreInto(none)
	sameSet(t, "restored in place", none, nil, wantTypes, wantUsage, allocs)
	fresh := NewAddressSet()
	st.restoreInto(fresh)
	sameSet(t, "restored into a new set", fresh, nil, wantTypes, wantUsage, allocs)
	fresh.RecordAlloc(now+2, 0, types[1], 0x8888_0000)
	if fresh.Len() != 0 || fresh.Dropped() != allocs+1 {
		t.Fatalf("restored set recorded an allocation: %d records, %d dropped", fresh.Len(), fresh.Dropped())
	}
}
