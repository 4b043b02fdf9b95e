// Package hashtab is the open-addressed hash table keyed by uint64 that the
// simulator's coherence directory, the allocator's slab page map and the
// profiler's address index share, together with the sparse checkpoint form
// and the dense-array recycler that let a warm machine be captured, parked
// and restored in place.
//
// The table uses linear probing with Fibonacci multiplicative hashing. Keys
// are stored as key+1 so the zero entry means "empty" and key 0 stays
// storable; the table doubles at 3/4 occupancy and deletes by backward
// shift, so probe chains stay contiguous without tombstones. The layout is
// a pure function of the operation sequence: the same inserts and deletes
// put every entry in the same slot, so iteration order and checkpoints are
// deterministic.
//
// The probe is exposed as find-slot / insert-at / delete-at, so a caller's
// fused read-modify-write (the directory's swap, fetch-or and and-not) stays
// one probe; an insert that fills the table past 3/4 tells its caller to
// Grow.
package hashtab

import (
	"iter"
	"unsafe"
)

// hashMul is the Fibonacci multiplicative hashing constant (2^64 / phi, odd).
const hashMul = 0x9E3779B97F4A7C15

// Entry is one slot of a table.
type Entry[V any] struct {
	key uint64 // key+1; 0 = empty
	val V
}

// Table maps uint64 keys to values of type V. Make one with New; the zero
// Table is not usable.
type Table[V any] struct {
	entries []Entry[V]
	mask    uint64
	shift   uint
	n       int // occupied entries
	// arrays supplies entry arrays and takes them back on Release; nil
	// makes fresh ones.
	arrays *Recycler[Entry[V]]
}

// New returns a table with room for about capHint entries before its first
// grow. Its entry arrays come from arrays, which may be nil.
func New[V any](capHint int, arrays *Recycler[Entry[V]]) Table[V] {
	size := 16
	for size*3/4 < capHint {
		size <<= 1
	}
	t := Table[V]{arrays: arrays}
	t.entries = arrays.Get(size)
	t.setSize(size)
	return t
}

// setSize derives the probe mask and hash shift of a table of size slots.
func (t *Table[V]) setSize(size int) {
	t.mask = uint64(size) - 1
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

func (t *Table[V]) slot(key uint64) uint64 { return (key * hashMul) >> t.shift }

// Find probes for key. It returns key's slot and true, or the empty slot
// where InsertAt would put key and false.
func (t *Table[V]) Find(key uint64) (uint64, bool) {
	k := key + 1
	for i := t.slot(k); ; i = (i + 1) & t.mask {
		switch t.entries[i].key {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// At returns the value in slot i, which Find reported present.
func (t *Table[V]) At(i uint64) *V { return &t.entries[i].val }

// InsertAt stores key and v in slot i, the empty slot Find returned for key,
// and reports whether the table is now past 3/4 occupancy. When it is, the
// caller must call Grow before any other operation on the table. The grow is
// the caller's so that InsertAt stays within the inliner's budget: the
// coherence directory inserts on every private miss.
func (t *Table[V]) InsertAt(i, key uint64, v V) (full bool) {
	t.entries[i] = Entry[V]{key: key + 1, val: v}
	t.n++
	return t.n*4 > len(t.entries)*3
}

// DeleteAt removes the entry in slot i, which Find reported present, by
// backward-shift deletion.
func (t *Table[V]) DeleteAt(i uint64) {
	t.n--
	for {
		t.entries[i] = Entry[V]{}
		j := i
		for {
			j = (j + 1) & t.mask
			e := t.entries[j]
			if e.key == 0 {
				return
			}
			// The entry at j may move back to i only if its ideal slot is
			// cyclically outside (i, j]; otherwise the move would break its
			// probe chain.
			if (j-t.slot(e.key))&t.mask >= (j-i)&t.mask {
				t.entries[i] = e
				i = j
				break
			}
		}
	}
}

// Get returns key's value, or the zero V if key is absent.
func (t *Table[V]) Get(key uint64) V {
	i, ok := t.Find(key)
	if !ok {
		var zero V
		return zero
	}
	return t.entries[i].val
}

// Set stores v for key, overwriting any previous value.
func (t *Table[V]) Set(key uint64, v V) {
	if i, ok := t.Find(key); ok {
		t.entries[i].val = v
	} else if t.InsertAt(i, key, v) {
		t.Grow()
	}
}

// Delete removes key and returns its value, or ok=false if it was absent.
func (t *Table[V]) Delete(key uint64) (v V, ok bool) {
	i, ok := t.Find(key)
	if ok {
		v = t.entries[i].val
		t.DeleteAt(i)
	}
	return v, ok
}

// Grow doubles the table, reinserting in slot order, which moves entries:
// slots found before a Grow are stale after it. The outgrown array goes to
// the GC, not the recycler: only Release feeds it.
func (t *Table[V]) Grow() {
	old := t.entries
	t.entries = t.arrays.Get(2 * len(old))
	t.setSize(len(t.entries))
	for _, e := range old {
		if e.key != 0 {
			i, _ := t.Find(e.key - 1)
			t.entries[i] = e
		}
	}
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// DenseBytes is the size of the table's entry array; zero once released.
func (t *Table[V]) DenseBytes() uint64 {
	return uint64(len(t.entries)) * uint64(unsafe.Sizeof(Entry[V]{}))
}

// All yields every entry in slot order. Callers that need an order
// independent of the hash must sort.
func (t *Table[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for _, e := range t.entries {
			if e.key != 0 && !yield(e.key-1, e.val) {
				return
			}
		}
	}
}

// Snapshot is a table's size and used entries with their slots, so Restore
// brings the layout back bit for bit.
type Snapshot[V any] struct {
	size    int
	entries Sparse[Entry[V]]
}

// Capture copies the table's size and used entries. The copy loop writes
// every slot at the next free position, which advances only past a used
// one.
func (t *Table[V]) Capture() Snapshot[V] {
	entries := MakeSparse[Entry[V]](t.n)
	for i, k := 0, 0; k < t.n; i++ {
		e := t.entries[i]
		entries.Set(k, i, e)
		if e.key != 0 {
			k++
		}
	}
	return Snapshot[V]{size: len(t.entries), entries: entries}
}

// Restore rewrites the table in place to the captured state. It takes an
// array from the recycler only when the table's is not the captured size:
// the table was released, or it grew after the capture.
func (t *Table[V]) Restore(s *Snapshot[V]) {
	t.entries = t.arrays.Reuse(t.entries, s.size)
	s.entries.Scatter(t.entries)
	t.setSize(s.size)
	t.n = s.entries.Len()
}

// Release hands the entry array to the recycler. The table is unusable
// until the next Restore.
func (t *Table[V]) Release() {
	t.arrays.Put(t.entries)
	t.entries = nil
}

// Bytes is the snapshot's exact resident size.
func (s *Snapshot[V]) Bytes() uint64 { return s.entries.Bytes() }
