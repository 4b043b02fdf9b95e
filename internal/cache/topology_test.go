package cache

import (
	"math/bits"
	"testing"
)

func TestTopologyValidateAndParse(t *testing.T) {
	cases := []struct {
		in   string
		want Topology
		ok   bool
	}{
		{"4x4", Topology{4, 4}, true},
		{"1x16", Topology{1, 16}, true},
		{" 2x8 ", Topology{2, 8}, true},
		{"0x4", Topology{}, false},
		{"4x0", Topology{}, false},
		{"9x9", Topology{}, false}, // 81 cores > MaxCores
		// 4 * 2^62 wraps to 0 in int: each factor is checked first.
		{"4x4611686018427387904", Topology{}, false},
		{"4611686018427387904x4", Topology{}, false},
		{"65x1", Topology{}, false},
		{"1x65", Topology{}, false},
		{"4", Topology{}, false},
		{"axb", Topology{}, false},
	}
	for _, c := range cases {
		got, err := ParseTopology(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseTopology(%q): err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseTopology(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	topo := Topology{4, 4}
	if topo.NumCores() != 16 {
		t.Errorf("NumCores = %d, want 16", topo.NumCores())
	}
	if s := topo.SocketOf(5); s != 1 {
		t.Errorf("SocketOf(5) = %d, want 1", s)
	}
	if cores := topo.CoresOn(2); cores[0] != 8 || cores[3] != 11 {
		t.Errorf("CoresOn(2) = %v, want [8 9 10 11]", cores)
	}
}

// FuzzParseTopology: any string ParseTopology accepts, and so Validate
// passes, has a core count in [1, MaxCores] equal to the exact product of
// its factors, whatever the product would have done in int.
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		topo, err := ParseTopology(s)
		if err != nil {
			return
		}
		hi, lo := bits.Mul64(uint64(topo.Sockets), uint64(topo.CoresPerSocket))
		n := topo.NumCores()
		if n < 1 || n > MaxCores || hi != 0 || lo != uint64(n) {
			t.Fatalf("ParseTopology(%q) = %v with %d cores, want a product in [1, %d]", s, topo, n, MaxCores)
		}
	})
}

// TestCrossSocketCoherence is the ISSUE 3 satellite table test: a line
// modified on socket 0 and read from socket 1 pays the cross-chip latency, a
// same-socket read pays the on-chip latency, and the single-socket topology
// reproduces the flat hierarchy's LatForeign exactly.
func TestCrossSocketCoherence(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name       string
		topo       Topology
		writer     int
		reader     int
		wantLevel  Level
		wantCycles uint32
	}{
		{"4x4 same socket", Topology{4, 4}, 0, 1, ForeignHit, cfg.LatForeign},
		{"4x4 cross socket", Topology{4, 4}, 0, 4, ForeignRemote, cfg.LatForeignRemote},
		{"4x4 far socket", Topology{4, 4}, 0, 15, ForeignRemote, cfg.LatForeignRemote},
		{"2x8 same socket", Topology{2, 8}, 2, 7, ForeignHit, cfg.LatForeign},
		{"2x8 cross socket", Topology{2, 8}, 2, 8, ForeignRemote, cfg.LatForeignRemote},
		{"1x16 reproduces LatForeign", Topology{1, 16}, 0, 15, ForeignHit, cfg.LatForeign},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewTopo(cfg, c.topo)
			const addr = 0x1000
			h.Access(c.writer, addr, true) // line Modified in writer's cache
			res := h.Access(c.reader, addr, false)
			if res.Level != c.wantLevel || res.Latency != c.wantCycles {
				t.Fatalf("read after remote write: level %v latency %d, want %v latency %d",
					res.Level, res.Latency, c.wantLevel, c.wantCycles)
			}
			if err := h.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrossSocketUpgrade checks that a write upgrade of a line shared with
// another chip pays the cross-chip invalidation round trip.
func TestCrossSocketUpgrade(t *testing.T) {
	cfg := DefaultConfig()
	h := NewTopo(cfg, Topology{4, 4})
	const addr = 0x2000
	h.Access(0, addr, false) // exclusive on core 0
	h.Access(4, addr, false) // shared with socket 1
	res := h.Access(0, addr, true)
	if res.Latency != cfg.LatForeignRemote {
		t.Fatalf("cross-chip upgrade latency %d, want %d", res.Latency, cfg.LatForeignRemote)
	}
	st := h.CoreStats(0)
	if st.Upgrades != 1 || st.InvalsSent != 1 {
		t.Fatalf("upgrades=%d invalsSent=%d, want 1/1", st.Upgrades, st.InvalsSent)
	}
}

// TestRemoteDRAM checks home-node accounting: an access that misses every
// cache goes to the page's home node, paying the remote latency from other
// sockets and the local latency from the home socket.
func TestRemoteDRAM(t *testing.T) {
	cfg := DefaultConfig()
	h := NewTopo(cfg, Topology{4, 4})
	const page = uint64(0x40000000)
	h.SetPageHome(page, 0)
	if home := h.HomeOf(page + 100); home != 0 {
		t.Fatalf("HomeOf = %d, want 0", home)
	}

	// Core 4 (socket 1) misses everywhere: remote fill.
	res := h.Access(4, page, false)
	if res.Level != DRAMRemote || res.Latency != cfg.LatDRAMRemote {
		t.Fatalf("remote-node fill: %v/%d, want %v/%d", res.Level, res.Latency, DRAMRemote, cfg.LatDRAMRemote)
	}
	// A different line on the same page from the home socket: local fill.
	res = h.Access(0, page+64, false)
	if res.Level != DRAM || res.Latency != cfg.LatDRAM {
		t.Fatalf("home-node fill: %v/%d, want %v/%d", res.Level, res.Latency, DRAM, cfg.LatDRAM)
	}
	// Unmapped pages are local from anywhere.
	res = h.Access(8, page+HomeGranule, false)
	if res.Level != DRAM {
		t.Fatalf("unmapped page: %v, want %v", res.Level, DRAM)
	}
	tot := h.Totals()
	if tot.DRAMRemoteFills != 1 || tot.DRAMFills != 2 {
		t.Fatalf("fills local=%d remote=%d, want 2/1", tot.DRAMFills, tot.DRAMRemoteFills)
	}
}

// TestRemoteL3Supply checks that a victim line parked in another chip's L3
// is supplied across the interconnect (and migrates to the requester).
func TestRemoteL3Supply(t *testing.T) {
	cfg := DefaultConfig()
	h := NewTopo(cfg, Topology{2, 8})
	const addr = 0x3000
	h.Access(0, addr, true)
	// Evict core 0's copy into socket 0's L3 by filling its L2 set.
	l2Sets := cfg.L2Size / cfg.LineSize / uint64(cfg.L2Ways)
	for i := uint64(1); i <= uint64(cfg.L2Ways); i++ {
		h.Access(0, addr+i*l2Sets*cfg.LineSize, false)
	}
	if got := residents(h, addr); len(got) != 1 || got[0] != (LineContent{Core: -1, Socket: 0, Addr: addr}) {
		t.Fatalf("line resident at %+v, want socket 0's L3 only; eviction setup broken", got)
	}
	res := h.Access(8, addr, false)
	if res.Level != ForeignRemote || res.Latency != cfg.LatForeignRemote {
		t.Fatalf("remote L3 supply: %v/%d, want %v/%d", res.Level, res.Latency, ForeignRemote, cfg.LatForeignRemote)
	}
	if got := residents(h, addr); len(got) != 1 || got[0] != (LineContent{Core: 8, Socket: 1, Addr: addr}) {
		t.Fatalf("line resident at %+v after the transfer, want core 8 only", got)
	}
}

// TestSocketOccupancy checks the per-socket line accounting the working-set
// view reports.
func TestSocketOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	h := NewTopo(cfg, Topology{4, 4})
	h.Access(0, 0x1000, false)  // socket 0
	h.Access(0, 0x2000, false)  // socket 0
	h.Access(12, 0x3000, false) // socket 3
	occ := h.SocketOccupancy()
	if len(occ) != 4 {
		t.Fatalf("got %d sockets, want 4", len(occ))
	}
	if occ[0].PrivateLines != 2 || occ[3].PrivateLines != 1 || occ[1].Lines() != 0 {
		t.Fatalf("occupancy = %+v", occ)
	}
}

// TestPerSocketL3Split checks each chip gets L3Size/Sockets bytes of victim
// cache: the same total as the flat machine, banked per chip.
func TestPerSocketL3Split(t *testing.T) {
	cfg := DefaultConfig()
	h := NewTopo(cfg, Topology{4, 4})
	perSocketLines := int(cfg.L3Size / uint64(4) / cfg.LineSize)
	for s, b := range h.l3s {
		if got := len(b.ways); got != perSocketLines {
			t.Fatalf("socket %d L3 holds %d lines, want %d", s, got, perSocketLines)
		}
	}
	flat := New(cfg, 16)
	if got := len(flat.l3s[0].ways); got != perSocketLines*4 {
		t.Fatalf("flat L3 holds %d lines, want %d", got, perSocketLines*4)
	}
}
