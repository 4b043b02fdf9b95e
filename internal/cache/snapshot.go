package cache

import (
	"unsafe"

	"dprof/internal/hashtab"
)

// Checkpoint records the hierarchy's mutable state sparsely: only what is
// live. For each bank (every core's L1 and L2, every socket's victim L3) it
// keeps the valid ways with their slot index; for the coherence directory,
// the L3 presence index and the page-home table it keeps the table size and
// the used entries with their slot index (hashtab.Snapshot); and it keeps
// the per-core counters and the directory probe count. Slot positions are
// exact, so every set's recency order (see bank) and the table layout come
// back bit for bit. Invalid ways and empty entries come back as zero, which
// is safe because no probe or fill reads an invalid way's line.
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
	l3s    []hashtab.Sparse[way]
	dir    hashtab.Snapshot[uint64]
	l3pres hashtab.Snapshot[uint64]
	homes  hashtab.Snapshot[uint64]
	stats  []Stats
	// dirProbes is Hierarchy.DirProbes at the capture.
	dirProbes uint64
}

type privState struct {
	l1, l2 hashtab.Sparse[way]
}

// captureBank copies b's valid ways. The copy loop is branch-free, because
// valid and invalid ways interleave unpredictably in a warmed bank: every
// way is written at the next free position, which advances only past a
// valid one.
func captureBank(b *bank) hashtab.Sparse[way] {
	n := 0
	for i := range b.ways {
		n += b.ways[i].valid()
	}
	ways := hashtab.MakeSparse[way](n)
	for i, k := 0, 0; k < n; i++ {
		w := b.ways[i]
		ways.Set(k, i, w)
		k += w.valid()
	}
	return ways
}

// valid is 1 for a way in any valid state, else 0.
func (w way) valid() int { return int((w.tag | w.tag>>1) & 1) }

func (b *bank) restoreFrom(s *hashtab.Sparse[way]) {
	b.ways = wayArrays.Reuse(b.ways, b.nsets()*int(b.nways))
	s.Scatter(b.ways)
}

// Checkpoint captures the hierarchy's live state.
func (h *Hierarchy) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		cores:     make([]privState, len(h.cores)),
		l3s:       make([]hashtab.Sparse[way], len(h.l3s)),
		dir:       h.dir.Capture(),
		l3pres:    h.l3pres.Capture(),
		homes:     h.homes.Capture(),
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
	h.dir.Restore(&cp.dir)
	h.l3pres.Restore(&cp.l3pres)
	h.homes.Restore(&cp.homes)
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
	h.dir.Release()
	h.l3pres.Release()
	h.homes.Release()
}

func (b *bank) release() {
	wayArrays.Put(b.ways)
	b.ways = nil
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
	return uint64(ways)*uint64(unsafe.Sizeof(way{})) +
		h.dir.DenseBytes() + h.l3pres.DenseBytes() + h.homes.DenseBytes()
}

// Bytes is the checkpoint's exact resident size, for checkpoint-pool
// budgeting: the lengths of its sparse slices and its counters times their
// element sizes.
func (cp *Checkpoint) Bytes() uint64 {
	n := cp.dir.Bytes() + cp.l3pres.Bytes() + cp.homes.Bytes()
	for i := range cp.cores {
		n += cp.cores[i].l1.Bytes() + cp.cores[i].l2.Bytes()
	}
	for s := range cp.l3s {
		n += cp.l3s[s].Bytes()
	}
	return n + uint64(len(cp.stats))*uint64(unsafe.Sizeof(Stats{}))
}
