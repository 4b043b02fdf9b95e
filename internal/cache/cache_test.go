package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.L1Size = 4 << 10 // 4KB, 2-way, 32 sets: small enough to force evictions
	cfg.L1Ways = 2
	cfg.L2Size = 16 << 10
	cfg.L2Ways = 4
	cfg.L3Size = 64 << 10
	cfg.L3Ways = 8
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.LineSize = 48
	if bad.Validate() == nil {
		t.Error("non-power-of-two line size accepted")
	}
	bad = DefaultConfig()
	bad.L1Ways = 0
	if bad.Validate() == nil {
		t.Error("zero ways accepted")
	}
	bad = DefaultConfig()
	bad.L1Size = 96 << 10 // 1536 lines / 2 ways = 768 sets: not a power of two
	bad.L1Ways = 2
	if bad.Validate() == nil {
		t.Error("non-power-of-two set count accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := New(testConfig(), 2)
	r := h.Access(0, 0x1000, false)
	if r.Level != DRAM {
		t.Fatalf("first access level = %v, want DRAM", r.Level)
	}
	r = h.Access(0, 0x1000, false)
	if r.Level != L1Hit {
		t.Fatalf("second access level = %v, want L1", r.Level)
	}
	if r.Latency != testConfig().LatL1 {
		t.Fatalf("L1 latency = %d, want %d", r.Latency, testConfig().LatL1)
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	h := New(testConfig(), 1)
	h.Access(0, 0x1000, false)
	if r := h.Access(0, 0x103F, false); r.Level != L1Hit {
		t.Fatalf("same-line access missed: %v", r.Level)
	}
	if r := h.Access(0, 0x1040, false); r.Level == L1Hit {
		t.Fatal("next-line access should miss")
	}
}

func TestForeignTransferOnRead(t *testing.T) {
	h := New(testConfig(), 2)
	h.Access(0, 0x2000, true) // core 0 owns the line modified
	r := h.Access(1, 0x2000, false)
	if r.Level != ForeignHit {
		t.Fatalf("remote read level = %v, want foreign", r.Level)
	}
	// Both copies are now shared; both cores hit locally.
	if r := h.Access(0, 0x2000, false); r.Level != L1Hit {
		t.Fatalf("original owner lost its copy: %v", r.Level)
	}
	if r := h.Access(1, 0x2000, false); r.Level != L1Hit {
		t.Fatalf("reader lost its copy: %v", r.Level)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := New(testConfig(), 3)
	h.Access(0, 0x3000, false)
	h.Access(1, 0x3000, false)
	h.Access(2, 0x3000, false)
	// Core 0 upgrades: cores 1 and 2 must lose their copies.
	h.Access(0, 0x3000, true)
	if r := h.Access(1, 0x3000, false); r.Level != ForeignHit {
		t.Fatalf("invalidated sharer read level = %v, want foreign", r.Level)
	}
	st := h.CoreStats(2)
	if st.InvalsRecv == 0 {
		t.Error("core 2 should have recorded a received invalidation")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpgradeCountsAndLatency(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, 2)
	h.Access(0, 0x4000, false)
	h.Access(1, 0x4000, false) // both shared
	r := h.Access(0, 0x4000, true)
	if r.Latency != cfg.LatForeign {
		t.Fatalf("upgrade with sharers latency = %d, want %d", r.Latency, cfg.LatForeign)
	}
	if h.CoreStats(0).Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", h.CoreStats(0).Upgrades)
	}
	// Exclusive write hit must not pay the upgrade.
	r = h.Access(0, 0x4000, true)
	if r.Latency != cfg.LatL1 {
		t.Fatalf("write hit on modified line latency = %d, want %d", r.Latency, cfg.LatL1)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, 1)
	// L1: 2 ways, 32 sets. Three lines in the same L1 set evict the first.
	sets := uint64(h.L1Sets())
	stride := sets * cfg.LineSize
	h.Access(0, 0x10000, false)
	h.Access(0, 0x10000+stride, false)
	h.Access(0, 0x10000+2*stride, false)
	r := h.Access(0, 0x10000, false)
	if r.Level != L2Hit {
		t.Fatalf("level after L1 conflict eviction = %v, want L2", r.Level)
	}
}

// TestDirProbesSkipPrivateHits: private hits on the slow path leave the
// coherence directory alone, and only misses, Shared write upgrades and L2
// evictions probe it. DirProbes follows ResetStats, Checkpoint and Restore.
func TestDirProbesSkipPrivateHits(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, 2)
	stride := uint64(h.L1Sets()) * cfg.LineSize // same L1 set, distinct L2 sets
	a, b, c := uint64(0x10000), 0x10000+stride, 0x10000+2*stride
	step := func(name string, core int, addr uint64, write bool, level Level, probes uint64) {
		t.Helper()
		before := h.DirProbes()
		if r := h.Access(core, addr, write); r.Level != level {
			t.Fatalf("%s: level %v, want %v", name, r.Level, level)
		}
		if got := h.DirProbes() - before; got != probes {
			t.Fatalf("%s: %d directory probes, want %d", name, got, probes)
		}
	}
	step("read miss a", 0, a, false, DRAM, 1)
	step("read miss b", 0, b, false, DRAM, 1) // b takes way 1 of the 2-way L1 set
	step("slow-path L1 read hit in way 1", 0, b, false, L1Hit, 0)
	step("read miss c", 0, c, false, DRAM, 1) // evicts a from L1 only
	step("L2 hit", 0, a, false, L2Hit, 0)     // a takes b's L1 way
	step("slow-path E write hit", 0, c, true, L1Hit, 0)
	step("foreign read shares c", 1, c, false, ForeignHit, 1)
	step("Shared write upgrade", 0, c, true, L1Hit, 1)
	if got := h.CoreStats(0).Upgrades; got != 1 {
		t.Fatalf("upgrades = %d, want 1", got)
	}

	cp := h.Checkpoint()
	n := h.DirProbes()
	h.ResetStats()
	if got := h.DirProbes(); got != 0 {
		t.Fatalf("DirProbes after ResetStats = %d, want 0", got)
	}
	h.Restore(cp)
	if got := h.DirProbes(); got != n {
		t.Fatalf("DirProbes after Restore = %d, want %d", got, n)
	}
}

func TestVictimL3(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, 1)
	// Fill enough same-L2-set lines to push a victim into L3.
	l2sets := cfg.L2Size / cfg.LineSize / uint64(cfg.L2Ways)
	stride := l2sets * cfg.LineSize
	base := uint64(0x100000)
	n := cfg.L2Ways + 1
	for i := 0; i <= n; i++ {
		h.Access(0, base+uint64(i)*stride, false)
	}
	r := h.Access(0, base, false)
	if r.Level != L3Hit {
		t.Fatalf("evicted line level = %v, want L3 (victim cache)", r.Level)
	}
}

func TestInclusionAfterL2Eviction(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, 2)
	l2sets := cfg.L2Size / cfg.LineSize / uint64(cfg.L2Ways)
	stride := l2sets * cfg.LineSize
	base := uint64(0x200000)
	for i := 0; i <= cfg.L2Ways+1; i++ {
		h.Access(0, base+uint64(i)*stride, false)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// residents lists where addr's line is resident, as Contents reports it: at
// most one entry per core (Core >= 0) and per L3 bank (Core == -1).
func residents(h *Hierarchy, addr uint64) []LineContent {
	base := addr &^ (h.Config().LineSize - 1)
	var out []LineContent
	for _, lc := range h.Contents() {
		if lc.Addr == base {
			out = append(out, lc)
		}
	}
	return out
}

// TestRestoreUndoesAccess brackets a foreign read with Checkpoint/Restore:
// the read downgrades the owner's copy, and the restore rewinds contents,
// states and counters, so the owner's write is again a plain L1 hit.
func TestRestoreUndoesAccess(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, 2)
	h.Access(0, 0x5000, true)
	before := h.CoreStats(0)
	cp := h.Checkpoint()
	if r := h.Access(1, 0x5000, false); r.Level != ForeignHit {
		t.Fatalf("read from other core = %v, want foreign", r.Level)
	}
	h.Restore(cp)
	if h.CoreStats(0) != before || h.CoreStats(1) != (Stats{}) {
		t.Error("restore did not rewind statistics")
	}
	if got := residents(h, 0x5000); len(got) != 1 || got[0].Core != 0 {
		t.Fatalf("after restore the line is resident at %+v, want core 0 only", got)
	}
	if r := h.Access(0, 0x5000, true); r.Level != L1Hit || r.Latency != cfg.LatL1 {
		t.Fatalf("owner write after restore = %v/%d, want an L1 hit without upgrade", r.Level, r.Latency)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := New(testConfig(), 2)
	h.Access(0, 0x6000, false) // DRAM
	h.Access(0, 0x6000, false) // L1
	h.Access(1, 0x6000, true)  // foreign (write steals)
	tot := h.Totals()
	if tot.Accesses != 3 {
		t.Fatalf("accesses = %d, want 3", tot.Accesses)
	}
	if tot.L1Hits != 1 || tot.DRAMFills != 1 || tot.ForeignHits != 1 {
		t.Fatalf("level counts wrong: %+v", tot)
	}
	if tot.Writes != 1 {
		t.Fatalf("writes = %d, want 1", tot.Writes)
	}
	if got := tot.L1Misses(); got != 2 {
		t.Fatalf("L1 misses = %d, want 2", got)
	}
	h.ResetStats()
	if h.Totals().Accesses != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestLatencyTable(t *testing.T) {
	cfg := testConfig()
	h := New(cfg, 1)
	for lv, want := range map[Level]uint32{
		L1Hit: cfg.LatL1, L2Hit: cfg.LatL2, L3Hit: cfg.LatL3,
		ForeignHit: cfg.LatForeign, DRAM: cfg.LatDRAM,
	} {
		if got := h.Latency(lv); got != want {
			t.Errorf("Latency(%v) = %d, want %d", lv, got, want)
		}
	}
}

func TestLevelStrings(t *testing.T) {
	names := map[Level]string{L1Hit: "L1", L2Hit: "L2", L3Hit: "L3", ForeignHit: "foreign", DRAM: "DRAM"}
	for lv, want := range names {
		if lv.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", lv, lv.String(), want)
		}
	}
}

// randomWorkload drives a hierarchy with a pseudo-random access pattern.
type randomWorkload struct {
	Seed int64
	N    uint16
}

func runRandom(h *Hierarchy, w randomWorkload, cores int) {
	rng := rand.New(rand.NewSource(w.Seed))
	for i := 0; i < int(w.N); i++ {
		core := rng.Intn(cores)
		addr := uint64(rng.Intn(1 << 16))
		h.Access(core, addr, rng.Intn(3) == 0)
	}
}

// TestQuickInvariants checks MESI + inclusion + directory invariants after
// arbitrary access sequences.
func TestQuickInvariants(t *testing.T) {
	prop := func(w randomWorkload) bool {
		h := New(testConfig(), 4)
		runRandom(h, w, 4)
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSingleWriter: after any write, no other core can hit locally
// without a coherence transaction first.
func TestQuickSingleWriter(t *testing.T) {
	prop := func(w randomWorkload, addr16 uint16) bool {
		h := New(testConfig(), 4)
		runRandom(h, w, 4)
		addr := uint64(addr16)
		h.Access(0, addr, true)
		// The writer must be the line's only private holder.
		held := false
		for _, lc := range residents(h, addr) {
			if lc.Core > 0 {
				return false
			}
			held = held || lc.Core == 0
		}
		return held
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxCoresBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for too many cores")
		}
	}()
	New(testConfig(), MaxCores+1)
}

// TestSetRecencyOrder walks one L2 set of a 2-core hierarchy through every
// operation that reorders a set and checks, after each, that the set lists
// its lines from most to least recently touched, that the next fill would
// take the right slot, and that the hierarchy is consistent. Lines are
// named by their index k in the set (address base + k*stride) and a state
// letter; "-" is an invalid slot.
func TestSetRecencyOrder(t *testing.T) {
	cfg := testConfig()
	cfg.L2Size, cfg.L2Ways = 32<<10, 8 // 64 sets of 8 ways; L1 stays 32 sets of 2
	h := New(cfg, 2)
	stride := cfg.L2Size / uint64(cfg.L2Ways) // one L2 (and L1) set apart
	const base = 0x100000
	addr := func(k int) uint64 { return base + uint64(k)*stride }
	set0 := addr(0) / cfg.LineSize
	name := func(w way) string {
		if w.state() == invalid {
			return "-"
		}
		k := (w.line()*cfg.LineSize - base) / stride
		return fmt.Sprintf("%d%c", k, "-SEM"[w.state()])
	}
	slots := func(b *bank) string {
		var out []string
		for _, w := range b.set(set0) {
			out = append(out, name(w))
		}
		return strings.Join(out, " ")
	}
	// check compares core 0's L1 and L2 sets with their expected slot
	// orders, and the way the next fill into the L2 set would displace
	// (placed into a copy of the set) with victim.
	check := func(step, l2, l1, victim string) {
		t.Helper()
		p := &h.cores[0]
		if got := slots(&p.l2); got != l2 {
			t.Fatalf("%s: L2 set = %q, want %q", step, got, l2)
		}
		if got := slots(&p.l1); got != l1 {
			t.Fatalf("%s: L1 set = %q, want %q", step, got, l1)
		}
		probe := append([]way(nil), p.l2.set(set0)...)
		if got := name(place(probe, wayTag(addr(99)/cfg.LineSize, exclusive))); got != victim {
			t.Fatalf("%s: the next L2 fill displaces %q, want %q", step, got, victim)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	access := func(core, k int, write bool, want Level) {
		t.Helper()
		if r := h.Access(core, addr(k), write); r.Level != want {
			t.Fatalf("core %d access to line %d = %v, want %v", core, k, r.Level, want)
		}
	}

	for k := 0; k < 8; k++ {
		access(0, k, false, DRAM)
	}
	check("fill", "7E 6E 5E 4E 3E 2E 1E 0E", "7E 6E", "0E")

	access(0, 2, false, L2Hit) // depth 5: moves to slot 0, slots 0-4 shift down
	check("hit at depth 5", "2E 7E 6E 5E 4E 3E 1E 0E", "2E 7E", "0E")

	access(1, 5, true, ForeignHit) // invalidates core 0's copy in place
	check("foreign write", "2E 7E 6E - 4E 3E 1E 0E", "2E 7E", "-")

	access(0, 8, false, DRAM) // takes the invalid slot: nothing is evicted
	check("fill into invalid slot", "8E 2E 7E 6E 4E 3E 1E 0E", "8E 2E", "0E")

	access(0, 9, false, DRAM) // full set: evicts line 0, the least recent
	check("fill into full set", "9E 8E 2E 7E 6E 4E 3E 1E", "9E 8E", "1E")
	if got := residents(h, addr(0)); len(got) != 1 || got[0].Core != -1 {
		t.Fatalf("evicted line 0 is resident at %+v, want the L3 alone", got)
	}

	access(0, 6, false, L2Hit) // promote into L1, evicting line 8 from L1 only
	check("L2-hit promote", "6E 9E 8E 2E 7E 4E 3E 1E", "6E 9E", "1E")

	if r, ok := h.fastHit(0, addr(6)/cfg.LineSize, true); !ok || r.Level != L1Hit {
		t.Fatalf("write to line 6 at slot 0 of both levels: fastHit = %v, %v; want an L1 hit", r, ok)
	}
	check("fast-path write", "6M 9E 8E 2E 7E 4E 3E 1E", "6M 9E", "1E")
}
