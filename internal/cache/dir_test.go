package cache

import "testing"

// TestLineZeroIsValid guards the key-is-line+1 encoding: line 0 must be
// storable and distinguishable from empty slots, and clearing its last
// holder must delete it.
func TestLineZeroIsValid(t *testing.T) {
	d := newDirTable(4)
	d.or(0, 0b10)
	if got := d.Get(0); got != 0b10 {
		t.Fatalf("Get(0) = %#x, want 0b10", got)
	}
	if got := d.andNot(0, 0b10); got != 0 {
		t.Fatalf("andNot(0, 0b10) = %#x, want 0", got)
	}
	if got, n := d.Get(0), d.Len(); got != 0 || n != 0 {
		t.Fatalf("after delete, Get(0) = %#x with %d entries", got, n)
	}
}
