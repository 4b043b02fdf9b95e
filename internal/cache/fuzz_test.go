package cache_test

import (
	"testing"

	"dprof/internal/cache"
)

// maxFuzzOps bounds one fuzz input's stream so every execution stays short.
const maxFuzzOps = 2048

// decodeStream turns fuzz bytes into a topology, a small geometry and an op
// stream. Four header bytes pick the machine:
//
//	byte 0: sockets-1 (bits 0-1), cores per socket-1 (bits 2-3),
//	        log2(line size/16) (bits 4-5)
//	byte 1-3: L1, L2, L3 (per socket): log2 ways (bits 0-1),
//	        log2 sets (bits 2-4)
//
// and every following three bytes are one op. A first byte with both top
// bits set is a page-home assignment on a multi-socket machine: socket
// (bits 0-1, modulo the socket count) for page b1&7. Anything else is an
// access: core (bits 0-5, modulo the core count), write (b1 bit 7), line
// b1&0x7f, byte offset b2 within the line. Lines are laid out sixteen to a
// 4 KB page, so page homes matter. Short inputs fall back to zero bytes.
func decodeStream(data []byte) (cache.Config, cache.Topology, []op) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	h := at(0)
	topo := cache.Topology{Sockets: 1 + int(h&3), CoresPerSocket: 1 + int(h>>2&3)}
	lineSize := uint64(16) << (h >> 4 & 3)
	bank := func(b byte) (size uint64, ways int) {
		ways = 1 << (b & 3)
		sets := uint64(1) << (b >> 2 & 7)
		return uint64(ways) * sets * lineSize, ways
	}
	cfg := cache.DefaultConfig()
	cfg.LineSize = lineSize
	cfg.L1Size, cfg.L1Ways = bank(at(1))
	cfg.L2Size, cfg.L2Ways = bank(at(2))
	cfg.L3Size, cfg.L3Ways = bank(at(3))
	cfg.L3Size *= uint64(topo.Sockets)

	var ops []op
	for i := 4; i+2 < len(data) && len(ops) < maxFuzzOps; i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		if b0&0xC0 == 0xC0 && topo.Sockets > 1 {
			ops = append(ops, op{addr: uint64(b1&7) * cache.HomeGranule, home: int(b0&3) % topo.Sockets})
			continue
		}
		l := uint64(b1 & 0x7f)
		ops = append(ops, op{
			core:  int(b0&0x3f) % topo.NumCores(),
			addr:  (l>>4)*cache.HomeGranule + (l&15)*lineSize + uint64(b2)%lineSize,
			write: b1&0x80 != 0,
			home:  -1,
		})
	}
	return cfg, topo, ops
}

// FuzzHierarchyOracle runs a decoded stream through the hierarchy and the
// naive oracle, comparing every Result and every core's counters, and the
// hierarchy's invariants at the end.
func FuzzHierarchyOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, topo, ops := decodeStream(data)
		p := newPair(cfg, topo)
		runOps(t, p, ops)
		if err := p.h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSnapshotRestore checkpoints a hierarchy at a fuzz-chosen point of a
// decoded stream, then restores the checkpoint into the same hierarchy
// (after running on past it), into a freshly built one, and into one
// released right after its checkpoint (restored with recycled, dirty
// arrays). Right after the restore, each must hold exactly the oracle's
// resident lines at the checkpoint; replaying the suffix on each must give
// the Results and counters of the uninterrupted run. at picks the snapshot point, scaled to
// the stream length.
func FuzzSnapshotRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, at byte, data []byte) {
		cfg, topo, ops := decodeStream(data)
		cut := int(at) * len(ops) / 256
		run := func(h *cache.Hierarchy, ops []op) []cache.Result {
			var out []cache.Result
			for _, x := range ops {
				if x.home >= 0 {
					h.SetPageHome(x.addr, x.home)
					continue
				}
				out = append(out, h.Access(x.core, x.addr, x.write))
			}
			return out
		}
		whole := cache.NewTopo(cfg, topo)
		run(whole, ops[:cut])
		want := run(whole, ops[cut:])

		h := cache.NewTopo(cfg, topo)
		run(h, ops[:cut])
		cp := h.Checkpoint()
		run(h, ops[cut:])
		h.Restore(cp)
		fresh := cache.NewTopo(cfg, topo)
		fresh.Restore(cp)
		// The parked path: release right after the snapshot, then restore
		// with the arrays another hierarchy released dirty, which the
		// recycler hands out first.
		parked := cache.NewTopo(cfg, topo)
		run(parked, ops[:cut])
		pcp := parked.Checkpoint()
		parked.Release()
		other := cache.NewTopo(cfg, topo)
		run(other, ops)
		other.Release()
		parked.Restore(pcp)
		o := newOracle(cfg, topo)
		for _, x := range ops[:cut] {
			if x.home >= 0 {
				o.setPageHome(x.addr, x.home)
			} else {
				o.access(x.core, x.addr, x.write)
			}
		}
		for _, side := range []struct {
			name string
			h    *cache.Hierarchy
		}{{"same", h}, {"fresh", fresh}, {"released", parked}} {
			name, r := side.name, side.h
			if err := checkContents(r, o); err != nil {
				t.Fatalf("%s hierarchy: restore at op %d: %v", name, cut, err)
			}
			got := run(r, ops[cut:])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s hierarchy: suffix access %d after restore at op %d: %+v, uninterrupted %+v",
						name, i, cut, got[i], want[i])
				}
			}
			for c := 0; c < topo.NumCores(); c++ {
				if g, w := r.CoreStats(c), whole.CoreStats(c); g != w {
					t.Fatalf("%s hierarchy: core %d stats after restore at op %d:\ngot  %+v\nwant %+v", name, c, cut, g, w)
				}
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("%s hierarchy: %v", name, err)
			}
		}
	})
}
