package cache

import "dprof/internal/hashtab"

// dirTable is the coherence directory: a map from line address to the
// bitmask of cores whose private caches hold the line. The same type serves
// the L3 presence index (line -> sockets) and the page-home table (page ->
// socket+1). A zero mask means absent: an entry whose mask empties is
// deleted. The fused operations below are each one probe, for the access
// pattern the hierarchy generates (lookup on every private miss, insert on
// every fill, delete on every last-copy eviction); compared to a Go map the
// open-addressed table avoids the generic hash and bucket machinery on what
// profiling shows is ~15% of simulation time.
type dirTable struct{ hashtab.Table[uint64] }

var (
	wayArrays hashtab.Recycler[way]
	dirArrays hashtab.Recycler[hashtab.Entry[uint64]]
)

// newDirTable returns a table with capacity for about capHint entries
// before the first grow. Its entries come from the recycler.
func newDirTable(capHint int) *dirTable {
	return &dirTable{hashtab.New(capHint, &dirArrays)}
}

// andNot clears bits from line's holder mask, deleting the entry if the
// mask empties — the combined get-then-set the eviction and invalidation
// paths want. It returns the new mask (0 if the entry is gone or was never
// present).
func (d *dirTable) andNot(line uint64, bits uint64) uint64 {
	i, ok := d.Find(line)
	if !ok {
		return 0
	}
	m := d.At(i)
	*m &^= bits
	if *m == 0 {
		d.DeleteAt(i)
		return 0
	}
	return *m
}

// fetchOr merges bits into line's holder mask, creating the entry if
// needed, and returns the prior mask (0 if absent). It fuses the get-then-or
// pair the read-miss path performs on the same key.
func (d *dirTable) fetchOr(line uint64, bits uint64) uint64 {
	i, ok := d.Find(line)
	if !ok {
		if d.InsertAt(i, line, bits) {
			d.Grow()
		}
		return 0
	}
	m := d.At(i)
	old := *m
	*m |= bits
	return old
}

// swap replaces line's holder mask, creating the entry if needed, and
// returns the prior mask (0 if absent). mask must be non-zero. It fuses the
// get / clear-others / add-self probe triple the write paths perform on the
// same key.
func (d *dirTable) swap(line uint64, mask uint64) uint64 {
	i, ok := d.Find(line)
	if !ok {
		if d.InsertAt(i, line, mask) {
			d.Grow()
		}
		return 0
	}
	m := d.At(i)
	old := *m
	*m = mask
	return old
}

// or merges bits into line's holder mask, creating the entry if needed.
func (d *dirTable) or(line uint64, bits uint64) { d.fetchOr(line, bits) }
