package cache

import "unsafe"

// Checkpoint records the hierarchy's mutable state sparsely: only what is
// live. For each bank (every core's L1 and L2, every socket's victim L3) it
// keeps the LRU tick and the valid ways with their slot index; for the
// coherence directory, the L3 presence index and the page-home table it
// keeps the table size, mask, count and shift and the used entries with
// their slot index; and it keeps the per-core counters and the directory
// probe count. Slot positions are
// exact, so move-to-front order and the table layout come back bit for bit.
// Invalid ways and empty entries come back as zero, which is safe because
// no probe or fill reads an invalid way's tag or lru.
//
// A checkpoint is immutable once taken: Restore copies out of it, so one
// checkpoint can seed any number of restores.
//
// Geometry (config, topology, latency tables, hit-counter pointers) is not
// captured — a checkpoint may only be restored into the hierarchy it was
// taken from or one built with the same config and topology, which Restore
// does in place so the pointers the hierarchy handed out (hitCtr, stats
// aliases) stay valid.
type Checkpoint struct {
	cores  []privState
	l3s    []bankState
	dir    tableState
	l3pres tableState
	homes  tableState
	stats  []Stats
	// dirProbes is Hierarchy.DirProbes at the capture.
	dirProbes uint64
}

// sparse holds the live elements of a dense array and their slot indices.
type sparse[T any] struct {
	slots []uint32
	vals  []T
}

// makeSparse returns a sparse array of n elements, sized exactly so Bytes
// can count lengths.
func makeSparse[T any](n int) sparse[T] {
	return sparse[T]{slots: make([]uint32, n), vals: make([]T, n)}
}

// scatter writes the saved elements back to their slots of a zeroed dense.
func (s *sparse[T]) scatter(dense []T) {
	for i, slot := range s.slots {
		dense[slot] = s.vals[i]
	}
}

func (s *sparse[T]) bytes() uint64 {
	var zero T
	return uint64(len(s.slots))*uint64(unsafe.Sizeof(uint32(0))) +
		uint64(len(s.vals))*uint64(unsafe.Sizeof(zero))
}

// bankState is a bank's tick and valid ways.
type bankState struct {
	tick uint64
	ways sparse[way]
}

type privState struct {
	l1, l2 bankState
}

// captureBank copies b's valid ways. The copy loop is branch-free, because
// valid and invalid ways interleave unpredictably in a warmed bank: every
// way is written at the next free position, which advances only past a
// valid one.
func captureBank(b *bank) bankState {
	n := 0
	for i := range b.ways {
		n += b.ways[i].valid()
	}
	ways := makeSparse[way](n)
	for i, k := 0, 0; k < n; i++ {
		w := b.ways[i]
		ways.slots[k], ways.vals[k] = uint32(i), w
		k += w.valid()
	}
	return bankState{tick: b.tick, ways: ways}
}

// valid is 1 for a way in any valid state, else 0.
func (w way) valid() int { return int((w.tag | w.tag>>1) & 1) }

func (b *bank) restoreFrom(s *bankState) {
	b.ways = wayArrays.reuse(b.ways, b.nsets()*int(b.nways))
	s.ways.scatter(b.ways)
	b.tick = s.tick
}

// tableState is a dirTable's shape and used entries.
type tableState struct {
	size    int
	mask    uint64
	n       int
	shift   uint
	entries sparse[dirEntry]
}

// captureTable copies d's shape and used entries, branch-free like
// captureBank.
func captureTable(d *dirTable) tableState {
	entries := makeSparse[dirEntry](d.n)
	for i, k := 0, 0; k < d.n; i++ {
		e := d.entries[i]
		entries.slots[k], entries.vals[k] = uint32(i), e
		if e.key != 0 {
			k++
		}
	}
	return tableState{size: len(d.entries), mask: d.mask, n: d.n, shift: d.shift, entries: entries}
}

// restore rewrites d in place. It takes a table from the recycler only when
// d's is not the checkpointed size: d was released, its table grew after
// the capture, or d is a fresh table.
func (s *tableState) restore(d *dirTable) {
	d.entries = dirArrays.reuse(d.entries, s.size)
	s.entries.scatter(d.entries)
	d.mask = s.mask
	d.n = s.n
	d.shift = s.shift
}

// Checkpoint captures the hierarchy's live state.
func (h *Hierarchy) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		cores:     make([]privState, len(h.cores)),
		l3s:       make([]bankState, len(h.l3s)),
		dir:       captureTable(h.dir),
		l3pres:    captureTable(h.l3pres),
		homes:     captureTable(h.homes),
		stats:     append([]Stats(nil), h.stats...),
		dirProbes: h.dirProbes,
	}
	for i := range h.cores {
		cp.cores[i] = privState{
			l1: captureBank(&h.cores[i].l1),
			l2: captureBank(&h.cores[i].l2),
		}
	}
	for s := range h.l3s {
		cp.l3s[s] = captureBank(&h.l3s[s])
	}
	return cp
}

// Restore rewinds the hierarchy to the checkpointed state. It writes in
// place — the stats slice, bank way arrays, tables and counter pointers keep
// their identity — by clearing every live array and scattering the saved
// entries back, and it allocates nothing unless a table grew after the
// capture. A released hierarchy takes its arrays back from the recycler
// instead, already zeroed, and allocates only what the recycler no longer
// stocks. Restore copies out of the checkpoint, so the same checkpoint can
// be restored any number of times.
func (h *Hierarchy) Restore(cp *Checkpoint) {
	if len(cp.cores) != len(h.cores) || len(cp.l3s) != len(h.l3s) {
		panic("cache: checkpoint restored into a different hierarchy")
	}
	for i := range h.cores {
		h.cores[i].l1.restoreFrom(&cp.cores[i].l1)
		h.cores[i].l2.restoreFrom(&cp.cores[i].l2)
	}
	for s := range h.l3s {
		h.l3s[s].restoreFrom(&cp.l3s[s])
	}
	cp.dir.restore(h.dir)
	cp.l3pres.restore(h.l3pres)
	cp.homes.restore(h.homes)
	copy(h.stats, cp.stats)
	h.dirProbes = cp.dirProbes
}

// Release hands every dense array of the hierarchy to the recycler: each
// core's L1 and L2 ways, each socket's L3 ways, and the directory,
// L3-presence and page-home tables. The hierarchy is unusable until the
// next Restore, which takes arrays back. A checkpoint pool calls it on an
// idle machine, so that only the sparse checkpoint stays resident between
// forks.
func (h *Hierarchy) Release() {
	for i := range h.cores {
		h.cores[i].l1.release()
		h.cores[i].l2.release()
	}
	for s := range h.l3s {
		h.l3s[s].release()
	}
	h.dir.release()
	h.l3pres.release()
	h.homes.release()
}

func (b *bank) release() {
	wayArrays.put(b.ways)
	b.ways = nil
}

func (d *dirTable) release() {
	dirArrays.put(d.entries)
	d.entries = nil
}

// DenseBytes is the size of the dense arrays the hierarchy holds: its bank
// ways and table entries. It is zero once the hierarchy is released.
func (h *Hierarchy) DenseBytes() uint64 {
	ways := 0
	for i := range h.cores {
		ways += len(h.cores[i].l1.ways) + len(h.cores[i].l2.ways)
	}
	for s := range h.l3s {
		ways += len(h.l3s[s].ways)
	}
	entries := len(h.dir.entries) + len(h.l3pres.entries) + len(h.homes.entries)
	return uint64(ways)*uint64(unsafe.Sizeof(way{})) + uint64(entries)*uint64(unsafe.Sizeof(dirEntry{}))
}

// Bytes is the checkpoint's exact resident size, for checkpoint-pool
// budgeting: the lengths of its sparse slices and its counters times their
// element sizes.
func (cp *Checkpoint) Bytes() uint64 {
	n := cp.dir.entries.bytes() + cp.l3pres.entries.bytes() + cp.homes.entries.bytes()
	for i := range cp.cores {
		n += cp.cores[i].l1.ways.bytes() + cp.cores[i].l2.ways.bytes()
	}
	for s := range cp.l3s {
		n += cp.l3s[s].ways.bytes()
	}
	return n + uint64(len(cp.stats))*uint64(unsafe.Sizeof(Stats{}))
}
