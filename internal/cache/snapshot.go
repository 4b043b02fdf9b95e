package cache

// Checkpoint is a deep copy of every piece of mutable hierarchy state: the
// packed ways of every bank (private L1/L2 pairs and the per-socket victim
// L3s, LRU ticks included), the coherence directory, the L3 presence index,
// the page-home table and the per-core counters. It is immutable once taken:
// Restore copies out of it, so one checkpoint can seed any number of
// restores.
//
// Geometry (config, topology, latency tables, hit-counter pointers) is not
// captured — a checkpoint may only be restored into the hierarchy it was
// taken from or one built with the same config and topology, which Restore
// does in place so the pointers the hierarchy handed out (hitCtr, stats
// aliases) stay valid.
type Checkpoint struct {
	cores  []priv // banks hold copied way slices
	l3s    []bank
	dir    dirState
	l3pres dirState
	homes  dirState
	stats  []Stats
}

// dirState is a copied dirTable.
type dirState struct {
	entries []dirEntry
	mask    uint64
	n       int
	shift   uint
}

func checkpointDir(d *dirTable) dirState {
	return dirState{
		entries: append([]dirEntry(nil), d.entries...),
		mask:    d.mask,
		n:       d.n,
		shift:   d.shift,
	}
}

func (s *dirState) restore(d *dirTable) {
	d.entries = append([]dirEntry(nil), s.entries...)
	d.mask = s.mask
	d.n = s.n
	d.shift = s.shift
}

func checkpointBank(b *bank) bank {
	cp := *b
	cp.ways = append([]way(nil), b.ways...)
	return cp
}

func (b *bank) restoreFrom(cp *bank) {
	copy(b.ways, cp.ways)
	b.tick = cp.tick
}

// Checkpoint deep-copies the hierarchy's mutable state.
func (h *Hierarchy) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		cores:  make([]priv, len(h.cores)),
		l3s:    make([]bank, len(h.l3s)),
		dir:    checkpointDir(h.dir),
		l3pres: checkpointDir(h.l3pres),
		homes:  checkpointDir(h.homes),
		stats:  append([]Stats(nil), h.stats...),
	}
	for i := range h.cores {
		cp.cores[i] = priv{
			l1: checkpointBank(&h.cores[i].l1),
			l2: checkpointBank(&h.cores[i].l2),
		}
	}
	for s := range h.l3s {
		cp.l3s[s] = checkpointBank(&h.l3s[s])
	}
	return cp
}

// Restore rewinds the hierarchy to the checkpointed state. It writes in
// place — the stats slice, bank way arrays, and counter pointers keep their
// identity — and copies out of the checkpoint, so the same checkpoint can be
// restored any number of times.
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
}

// Bytes estimates the checkpoint's resident size, for checkpoint-pool
// budgeting. The bank way arrays dominate.
func (cp *Checkpoint) Bytes() uint64 {
	n := uint64(0)
	for i := range cp.cores {
		n += uint64(len(cp.cores[i].l1.ways)+len(cp.cores[i].l2.ways)) * 16
	}
	for s := range cp.l3s {
		n += uint64(len(cp.l3s[s].ways)) * 16
	}
	n += uint64(len(cp.dir.entries)+len(cp.l3pres.entries)+len(cp.homes.entries)) * 16
	n += uint64(len(cp.stats)) * uint64(14*8)
	return n
}
