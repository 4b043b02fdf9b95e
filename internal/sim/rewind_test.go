package sim

import (
	"reflect"
	"testing"
)

// TestRewindRestoresInPlace: a registered value and a registered slice,
// mutated after a snapshot (the slice's length too), read the snapshot's
// contents after every restore, through the same pointer and in the same
// backing array; and the snapshot and the live machine grow by exactly the
// registrations' sizes.
func TestRewindRestoresInPlace(t *testing.T) {
	type counters struct {
		hits, misses uint64
		name         string
	} // 32 bytes
	m := testMachine(1)
	without, live := m.Snapshot().Bytes(), m.LiveBytes()

	v := &counters{hits: 1, misses: 2, name: "warm"}
	s := make([]uint64, 3, 4) // a 32-byte array
	copy(s, []uint64{10, 20, 30})
	array := &s[:cap(s)][0]
	RewindValues(m, v)
	RewindSlices(m, &s)
	snap := m.Snapshot()

	// Snapshot: two interface slots (32), the value copy and its boxed
	// header (32+24), the slice copies' outer header, boxed header and
	// exact-size array (24+24+24; 3 elements round to the 24-byte class).
	if got, want := snap.Bytes()-without, uint64(32+56+72); got != want {
		t.Errorf("registrations add %d snapshot bytes, want %d", got, want)
	}
	// Live: two Snapshotter slots (32), each registration's pointer (8)
	// and what it names: the value (32) and the slice's array (32).
	if got, want := m.LiveBytes()-live, uint64(32+40+40); got != want {
		t.Errorf("registrations add %d live bytes, want %d", got, want)
	}

	wantV, wantS := counters{hits: 1, misses: 2, name: "warm"}, []uint64{10, 20, 30}
	check := func(round string) {
		t.Helper()
		if *v != wantV {
			t.Errorf("%s: value = %+v, want %+v", round, *v, wantV)
		}
		if !reflect.DeepEqual(s, wantS) {
			t.Errorf("%s: slice = %v, want %v", round, s, wantS)
		}
		if &s[:cap(s)][0] != array {
			t.Errorf("%s: restore moved the slice to a new array", round)
		}
	}

	// Grow the slice within its array, and mutate everything.
	v.hits, v.name = 100, "cold"
	s[0] = 99
	s = append(s, 40)
	m.Restore(snap)
	check("first restore")

	// Shrink the slice, so the restore writes past its live length.
	v.misses = 7
	s[1] = 98
	s = s[:1]
	m.Restore(snap)
	check("second restore")
}
