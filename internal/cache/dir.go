package cache

// dirTable is the coherence directory: a map from line address to the bitmask
// of cores whose private caches hold the line. It is an open-addressed,
// linear-probing hash table specialized for the access pattern the hierarchy
// generates (lookup on every private miss, insert on every fill, delete on
// every last-copy eviction). Compared to a Go map it avoids the generic hash
// and bucket machinery on what profiling shows is ~15% of simulation time.
//
// Keys are stored as line+1 so the zero entry means "empty"; line addresses
// themselves may legitimately be zero.
type dirTable struct {
	entries []dirEntry
	mask    uint64
	n       int // occupied entries
	shift   uint
}

type dirEntry struct {
	key  uint64 // line+1; 0 = empty
	mask uint64 // holder core bitmask
}

// newDirTable returns a table with capacity for about cap entries before the
// first grow. Its entries come from the recycler, like every table's.
func newDirTable(capHint int) *dirTable {
	size := uint64(16)
	for int(size)*3/4 < capHint {
		size <<= 1
	}
	return &dirTable{
		entries: dirArrays.get(int(size)),
		mask:    size - 1,
		shift:   shiftFor(size),
	}
}

func shiftFor(size uint64) uint {
	s := uint(64)
	for size > 1 {
		size >>= 1
		s--
	}
	return s
}

// fibonacci multiplicative hashing constant (2^64 / phi, odd).
const dirHashMul = 0x9E3779B97F4A7C15

func (d *dirTable) slot(key uint64) uint64 { return (key * dirHashMul) >> d.shift }

// get returns the holder mask for line (0 if absent).
func (d *dirTable) get(line uint64) uint64 {
	key := line + 1
	for i := d.slot(key); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.key == key {
			return e.mask
		}
		if e.key == 0 {
			return 0
		}
	}
}

// set stores mask for line; mask 0 deletes the entry.
func (d *dirTable) set(line uint64, mask uint64) {
	key := line + 1
	for i := d.slot(key); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.key == key {
			if mask == 0 {
				d.del(i)
			} else {
				e.mask = mask
			}
			return
		}
		if e.key == 0 {
			if mask == 0 {
				return
			}
			e.key, e.mask = key, mask
			d.n++
			if uint64(d.n)*4 > uint64(len(d.entries))*3 {
				d.grow()
			}
			return
		}
	}
}

// andNot clears bits from line's holder mask in one probe — the combined
// form of get-then-set the eviction and invalidation paths want — deleting
// the entry if the mask empties. It returns the new mask (0 if the entry is
// gone or was never present).
func (d *dirTable) andNot(line uint64, bits uint64) uint64 {
	key := line + 1
	for i := d.slot(key); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.key == key {
			e.mask &^= bits
			if e.mask == 0 {
				d.del(i)
				return 0
			}
			return e.mask
		}
		if e.key == 0 {
			return 0
		}
	}
}

// fetchOr merges bits into line's holder mask in one probe, creating the
// entry if needed, and returns the prior mask (0 if absent). It fuses the
// get-then-or pair the read-miss path performs on the same key.
func (d *dirTable) fetchOr(line uint64, bits uint64) uint64 {
	key := line + 1
	for i := d.slot(key); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.key == key {
			old := e.mask
			e.mask |= bits
			return old
		}
		if e.key == 0 {
			e.key, e.mask = key, bits
			d.n++
			if uint64(d.n)*4 > uint64(len(d.entries))*3 {
				d.grow()
			}
			return 0
		}
	}
}

// swap replaces line's holder mask in one probe, creating the entry if
// needed, and returns the prior mask (0 if absent). mask must be non-zero.
// It fuses the get / clear-others / add-self probe triple the write paths
// perform on the same key.
func (d *dirTable) swap(line uint64, mask uint64) uint64 {
	key := line + 1
	for i := d.slot(key); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.key == key {
			old := e.mask
			e.mask = mask
			return old
		}
		if e.key == 0 {
			e.key, e.mask = key, mask
			d.n++
			if uint64(d.n)*4 > uint64(len(d.entries))*3 {
				d.grow()
			}
			return 0
		}
	}
}

// or merges bits into line's holder mask, creating the entry if needed.
func (d *dirTable) or(line uint64, bits uint64) {
	key := line + 1
	for i := d.slot(key); ; i = (i + 1) & d.mask {
		e := &d.entries[i]
		if e.key == key {
			e.mask |= bits
			return
		}
		if e.key == 0 {
			e.key, e.mask = key, bits
			d.n++
			if uint64(d.n)*4 > uint64(len(d.entries))*3 {
				d.grow()
			}
			return
		}
	}
}

// del removes the entry at slot i using backward-shift deletion, which keeps
// probe chains contiguous without tombstones.
func (d *dirTable) del(i uint64) {
	d.n--
	for {
		d.entries[i] = dirEntry{}
		j := i
		for {
			j = (j + 1) & d.mask
			e := d.entries[j]
			if e.key == 0 {
				return
			}
			k := d.slot(e.key)
			// The entry at j may move back to i only if its ideal slot k is
			// cyclically outside (i, j]; otherwise the move would break its
			// probe chain.
			if (j-k)&d.mask >= (j-i)&d.mask {
				d.entries[i] = e
				i = j
				break
			}
		}
	}
}

// grow doubles the table. The outgrown entries go to the GC, not the
// recycler: only Release feeds it.
func (d *dirTable) grow() {
	old := d.entries
	size := uint64(len(old)) * 2
	d.entries = dirArrays.get(int(size))
	d.mask = size - 1
	d.shift = shiftFor(size)
	d.n = 0
	for _, e := range old {
		if e.key != 0 {
			d.or(e.key-1, e.mask)
		}
	}
}

// forEach visits every (line, mask) entry. Iteration order is unspecified;
// callers that need determinism must sort.
func (d *dirTable) forEach(fn func(line, mask uint64)) {
	for _, e := range d.entries {
		if e.key != 0 {
			fn(e.key-1, e.mask)
		}
	}
}
