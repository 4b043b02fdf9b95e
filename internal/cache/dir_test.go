package cache

import (
	"math/rand"
	"testing"
)

// TestDirTableMatchesMap cross-checks the open-addressed directory against a
// plain map under a random workload heavy in deletions (the case that
// exercises backward-shift deletion).
func TestDirTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := newDirTable(4) // tiny, to force many grows
	ref := map[uint64]uint64{}
	const lines = 512 // small key space => constant collisions and reuse
	for i := 0; i < 200_000; i++ {
		line := uint64(rng.Intn(lines))
		switch rng.Intn(4) {
		case 0: // or
			bits := uint64(1) << uint(rng.Intn(16))
			d.or(line, bits)
			ref[line] |= bits
		case 1: // set
			mask := uint64(rng.Intn(8))
			d.set(line, mask)
			if mask == 0 {
				delete(ref, line)
			} else {
				ref[line] = mask
			}
		case 2: // delete via set 0
			d.set(line, 0)
			delete(ref, line)
		case 3: // get
			if got, want := d.get(line), ref[line]; got != want {
				t.Fatalf("step %d: get(%d) = %#x, want %#x", i, line, got, want)
			}
		}
	}
	for line, want := range ref {
		if got := d.get(line); got != want {
			t.Fatalf("final: get(%d) = %#x, want %#x", line, got, want)
		}
	}
	count := 0
	d.forEach(func(line, mask uint64) {
		count++
		if ref[line] != mask {
			t.Fatalf("forEach: line %d has %#x, want %#x", line, mask, ref[line])
		}
	})
	if count != len(ref) {
		t.Fatalf("forEach visited %d entries, map has %d", count, len(ref))
	}
}

// TestLineZeroIsValid guards the key-is-line+1 encoding: line 0 must be
// storable and distinguishable from empty slots.
func TestLineZeroIsValid(t *testing.T) {
	d := newDirTable(4)
	d.or(0, 0b10)
	if got := d.get(0); got != 0b10 {
		t.Fatalf("get(0) = %#x, want 0b10", got)
	}
	d.set(0, 0)
	if got := d.get(0); got != 0 {
		t.Fatalf("after delete, get(0) = %#x", got)
	}
}
