package cache

// Tests for the private-line fast path: a line it served as a private hit
// must fall back to the slow path once a foreign access or an eviction has
// changed the line's state. The oracle differential (oracle_test.go) covers
// the fast path's results on every access.

import "testing"

func TestFastPathInvalidatedByForeignWrite(t *testing.T) {
	h := New(DefaultConfig(), 2)
	const addr = 0x4000
	h.Access(0, addr, true)
	h.Access(0, addr, true) // private M hit
	h.Access(1, addr, true) // foreign write invalidates core 0's copy
	// Core 0 must now pay the foreign transfer, not a phantom L1 hit.
	if r := h.Access(0, addr, false); r.Level != ForeignHit {
		t.Fatalf("post-invalidation access level = %v, want foreign", r.Level)
	}
	if got := h.CoreStats(0).InvalsRecv; got != 1 {
		t.Fatalf("core 0 InvalsRecv = %d, want 1", got)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFastPathInvalidatedByForeignRead(t *testing.T) {
	h := New(DefaultConfig(), 2)
	const addr = 0x8000
	h.Access(0, addr, true)
	h.Access(0, addr, false) // private hit in M
	h.Access(1, addr, false) // foreign read downgrades core 0 to Shared
	// A write by core 0 must now take the slow upgrade path and invalidate
	// core 1's copy.
	h.Access(0, addr, true)
	if got := h.CoreStats(0).Upgrades; got != 1 {
		t.Fatalf("core 0 Upgrades = %d, want 1 (slow upgrade path)", got)
	}
	if got := h.CoreStats(1).InvalsRecv; got != 1 {
		t.Fatalf("core 1 InvalsRecv = %d, want 1", got)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFastPathInvalidatedByEviction(t *testing.T) {
	cfg := DefaultConfig()
	h := New(cfg, 1)
	const addr = 0x10000
	h.Access(0, addr, true)
	h.Access(0, addr, true) // private M hit
	// Thrash the line's L2 set until the line is evicted: lines that
	// map to the same L2 set differ by l2Sets * lineSize strides.
	l2Sets := cfg.L2Size / cfg.LineSize / uint64(cfg.L2Ways)
	stride := l2Sets * cfg.LineSize
	for i := 1; i <= cfg.L2Ways+1; i++ {
		h.Access(0, addr+uint64(i)*stride, true)
	}
	for _, lc := range residents(h, addr) {
		if lc.Core == 0 {
			t.Fatalf("line still private after conflict thrash: %+v", lc)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
