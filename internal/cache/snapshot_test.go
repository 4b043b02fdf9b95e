package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// warmHierarchy drives h with n random accesses over a footprint of lines
// lines, so that banks, directory and L3 presence all hold entries.
func warmHierarchy(h *Hierarchy, rng *rand.Rand, n, lines int) {
	for i := 0; i < n; i++ {
		h.Access(rng.Intn(h.NumCores()), uint64(rng.Intn(lines))*h.cfg.LineSize, rng.Intn(3) == 0)
	}
}

// TestRestoreAllocatesNothing: when no table grew after the capture, a
// restore rewrites the live arrays in place without allocating.
func TestRestoreAllocatesNothing(t *testing.T) {
	h := NewTopo(DefaultConfig(), Topology{Sockets: 2, CoresPerSocket: 8})
	rng := rand.New(rand.NewSource(3))
	for p := uint64(0); p < 64; p++ {
		h.SetPageHome(p*HomeGranule, int(p%2))
	}
	warmHierarchy(h, rng, 20_000, 1<<14)
	cp := h.Checkpoint()
	warmHierarchy(h, rng, 20_000, 1<<14)
	if allocs := testing.AllocsPerRun(10, func() { h.Restore(cp) }); allocs != 0 {
		t.Fatalf("Restore allocated %v times per run, want 0", allocs)
	}
}

// TestRestoreAfterHomesGrew: a checkpoint taken before the page-home table
// grew restores the smaller table — pages homed after the capture are
// unmapped again — and the restored hierarchy replays exactly like one that
// never saw those homes.
func TestRestoreAfterHomesGrew(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 2}
	build := func() *Hierarchy {
		h := NewTopo(testConfig(), topo)
		for p := uint64(0); p < 16; p++ {
			h.SetPageHome(p*HomeGranule, int(p%2))
		}
		warmHierarchy(h, rand.New(rand.NewSource(5)), 5_000, 1<<10)
		return h
	}
	h, twin := build(), build()
	cp := h.Checkpoint()
	size := h.homes.DenseBytes()
	const pages = 3_000
	for p := uint64(0); p < pages; p++ {
		h.SetPageHome(p*HomeGranule, 1)
	}
	if h.homes.DenseBytes() <= size {
		t.Fatalf("homes table stayed at %d bytes; the test needs it to grow", size)
	}
	h.Restore(cp)
	if got := h.homes.DenseBytes(); got != size {
		t.Fatalf("restored homes table holds %d bytes, want the checkpointed %d", got, size)
	}
	for p := uint64(0); p < pages; p++ {
		if got, want := h.HomeOf(p*HomeGranule), twin.HomeOf(p*HomeGranule); got != want {
			t.Fatalf("page %d: HomeOf = %d after restore, want %d", p, got, want)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20_000; i++ {
		core, addr, write := rng.Intn(topo.NumCores()), uint64(rng.Intn(64*HomeGranule)), rng.Intn(3) == 0
		if got, want := h.Access(core, addr, write), twin.Access(core, addr, write); got != want {
			t.Fatalf("replay access %d (core %d addr %#x): %+v after restore, %+v uninterrupted", i, core, addr, got, want)
		}
	}
	for c := 0; c < topo.NumCores(); c++ {
		if got, want := h.CoreStats(c), twin.CoreStats(c); got != want {
			t.Fatalf("core %d stats after replay:\ngot  %+v\nwant %+v", c, got, want)
		}
	}
}

// TestCheckpointBytesExact: Bytes is the sparse form's exact size — 8 bytes
// per valid way and 16 per used table entry, each plus its 4-byte slot
// index, and 112 bytes of counters per core — counted here from the live
// hierarchy.
func TestCheckpointBytesExact(t *testing.T) {
	if n := unsafe.Sizeof(way{}); n != 8 {
		t.Fatalf("a way is %d bytes, want 8 (the packed tag alone)", n)
	}
	h := NewTopo(DefaultConfig(), Topology{Sockets: 2, CoresPerSocket: 4})
	for p := uint64(0); p < 32; p++ {
		h.SetPageHome(p*HomeGranule, int(p%2))
	}
	warmHierarchy(h, rand.New(rand.NewSource(11)), 50_000, 1<<16)
	ways := 0
	countWays := func(b *bank) {
		for _, w := range b.ways {
			if w.state() != invalid {
				ways++
			}
		}
	}
	for i := range h.cores {
		countWays(&h.cores[i].l1)
		countWays(&h.cores[i].l2)
	}
	for s := range h.l3s {
		countWays(&h.l3s[s])
	}
	entries := h.dir.Len() + h.l3pres.Len() + h.homes.Len()
	want := uint64(ways)*(8+4) + uint64(entries)*(16+4) + uint64(len(h.cores))*14*8
	if got := h.Checkpoint().Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d (%d live ways, %d table entries, %d cores)", got, want, ways, entries, len(h.cores))
	}
}

// TestReleaseThenRestore: a hierarchy released after a checkpoint holds no
// dense array, and restoring the checkpoint into it — with arrays another
// hierarchy released dirty — gives a hierarchy that replays exactly like a
// twin that was never released.
func TestReleaseThenRestore(t *testing.T) {
	topo := Topology{Sockets: 2, CoresPerSocket: 4}
	build := func() *Hierarchy {
		h := NewTopo(testConfig(), topo)
		for p := uint64(0); p < 64; p++ {
			h.SetPageHome(p*HomeGranule, int(p%2))
		}
		warmHierarchy(h, rand.New(rand.NewSource(13)), 20_000, 1<<12)
		return h
	}
	h, twin := build(), build()
	cp := h.Checkpoint()
	warmHierarchy(h, rand.New(rand.NewSource(17)), 20_000, 1<<12)
	h.Release()
	if n := h.DenseBytes(); n != 0 {
		t.Fatalf("released hierarchy holds %d dense bytes, want 0", n)
	}
	dirty := build()
	warmHierarchy(dirty, rand.New(rand.NewSource(19)), 20_000, 1<<14)
	dirty.Release()

	h.Restore(cp)
	if got, want := h.DenseBytes(), twin.DenseBytes(); got != want {
		t.Fatalf("restored hierarchy holds %d dense bytes, its twin %d", got, want)
	}
	if err := h.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := h.SocketOccupancy(), twin.SocketOccupancy(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SocketOccupancy after restore = %+v, twin %+v", got, want)
	}
	if got, want := h.Contents(), twin.Contents(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Contents after restore differ from the twin's: %d lines vs %d", len(got), len(want))
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 50_000; i++ {
		core, addr, write := rng.Intn(topo.NumCores()), uint64(rng.Intn(1<<14))*64, rng.Intn(3) == 0
		if got, want := h.Access(core, addr, write), twin.Access(core, addr, write); got != want {
			t.Fatalf("replay access %d (core %d addr %#x): %+v after release and restore, %+v never released", i, core, addr, got, want)
		}
	}
	for c := 0; c < topo.NumCores(); c++ {
		if got, want := h.CoreStats(c), twin.CoreStats(c); got != want {
			t.Fatalf("core %d stats after replay:\ngot  %+v\nwant %+v", c, got, want)
		}
	}
}
