// Package cache simulates a multicore CPU cache hierarchy.
//
// The model follows the machine used in the DProf paper (a 16-core AMD
// system): each core has a private, inclusive L1d+L2 pair; the cores on each
// chip share a non-inclusive victim L3 bank (AMD's L3 is a victim cache);
// coherence across the private hierarchies is kept with a directory-based
// MESI protocol. A Topology (sockets x cores-per-socket) splits the machine
// into chips: foreign transfers between chips and fills from another
// socket's memory node pay distinct cross-chip latencies, while the default
// single-socket topology reproduces the flat hierarchy exactly. Latencies
// are configurable and default to the values the paper reports (3 ns L1 hits,
// 200 ns foreign-cache transfers, with 1 cycle == 1 ns at the simulated 1 GHz
// clock).
//
// The hierarchy is the component that *produces* the phenomena DProf
// diagnoses: invalidation misses (true/false sharing) come from MESI
// write-invalidations, conflict misses from finite set associativity, and
// capacity misses from finite total size.
package cache

import (
	"fmt"
	"math/bits"
)

// Level classifies where an access was satisfied.
type Level uint8

const (
	// L1Hit means the access hit in the core's private L1.
	L1Hit Level = iota
	// L2Hit means the access missed L1 but hit the core's private L2.
	L2Hit
	// L3Hit means the access was satisfied by the shared victim L3.
	L3Hit
	// ForeignHit means the line was transferred from another core's
	// private cache on the same chip (the expensive cross-core case DProf
	// highlights). On the single-socket topology every foreign transfer is
	// a ForeignHit.
	ForeignHit
	// ForeignRemote means the line came from a cache on a different chip —
	// a cross-chip (HyperTransport) transfer, costlier than an on-chip one.
	ForeignRemote
	// DRAM means the access went to the socket's local memory node.
	DRAM
	// DRAMRemote means the access went to memory homed on a different
	// socket (a remote NUMA node).
	DRAMRemote
	numLevels
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	case L3Hit:
		return "L3"
	case ForeignHit:
		return "foreign"
	case ForeignRemote:
		return "cross-chip"
	case DRAM:
		return "DRAM"
	case DRAMRemote:
		return "remote-DRAM"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// NumLevels is the number of distinct Level values.
const NumLevels = int(numLevels)

// MaxCores bounds the number of cores a Hierarchy supports (directory entries
// store holders as a 64-bit mask).
const MaxCores = 64

// Config describes the geometry and latency of the hierarchy.
type Config struct {
	LineSize uint64 // bytes per cache line; must be a power of two

	L1Size uint64 // bytes per core
	L1Ways int
	L2Size uint64 // bytes per core
	L2Ways int
	L3Size uint64 // bytes, shared
	L3Ways int

	// Latencies, in cycles, of an access satisfied at each point.
	// LatForeign and LatDRAM are the on-chip / local-node costs; the
	// Remote variants price the cross-chip interconnect hop and only
	// engage on multi-socket topologies.
	LatL1            uint32
	LatL2            uint32
	LatL3            uint32
	LatForeign       uint32
	LatForeignRemote uint32
	LatDRAM          uint32
	LatDRAMRemote    uint32
}

// DefaultConfig returns the paper machine's geometry: 64 KB 2-way L1d and
// 512 KB 16-way L2 per core, a 16 MB 32-way shared victim L3 (the paper's
// four-socket AMD box has 4 x 4-6 MB of L3), 64-byte lines, and the paper's
// latencies (1 cycle == 1 ns).
func DefaultConfig() Config {
	return Config{
		LineSize:         64,
		L1Size:           64 << 10,
		L1Ways:           2,
		L2Size:           512 << 10,
		L2Ways:           16,
		L3Size:           16 << 20,
		L3Ways:           32,
		LatL1:            3,
		LatL2:            14,
		LatL3:            38,
		LatForeign:       200,
		LatForeignRemote: 300,
		LatDRAM:          250,
		LatDRAMRemote:    350,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.LineSize == 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d is not a power of two", c.LineSize)
	}
	for _, lv := range []struct {
		name string
		size uint64
		ways int
	}{{"L1", c.L1Size, c.L1Ways}, {"L2", c.L2Size, c.L2Ways}, {"L3", c.L3Size, c.L3Ways}} {
		if lv.ways <= 0 {
			return fmt.Errorf("cache: %s ways must be positive", lv.name)
		}
		lines := lv.size / c.LineSize
		if lines == 0 || lines%uint64(lv.ways) != 0 {
			return fmt.Errorf("cache: %s size %d does not divide into %d ways of %d-byte lines",
				lv.name, lv.size, lv.ways, c.LineSize)
		}
		sets := lines / uint64(lv.ways)
		if sets&(sets-1) != 0 {
			return fmt.Errorf("cache: %s set count %d is not a power of two", lv.name, sets)
		}
	}
	return nil
}

// Result describes the outcome of one line access.
type Result struct {
	Level   Level
	Latency uint32
}

type mesi uint8

const (
	invalid mesi = iota
	shared
	exclusive
	modified
)

// way is one cache way, packed to 8 bytes: the MESI state lives in the low
// two bits of tag and the line address (addr >> lineShift) in the rest, so
// tag == line<<2 | state and a zero tag means invalid. A way carries no LRU
// stamp — its position in the set is its recency (see bank) — so a 16-way
// L2 set scan reads two cache lines and a 32-way L3 scan four. The set
// scans are among the hottest loops in the simulator, and the way arrays
// are most of the memory a memoized or checkpointed machine holds.
type way struct {
	tag uint64
}

// wayTag builds the packed tag for line held in state st.
func wayTag(line uint64, st mesi) uint64 { return line<<2 | uint64(st) }

func (w way) line() uint64 { return w.tag >> 2 }
func (w way) state() mesi  { return mesi(w.tag & 3) }

// matches reports whether the way holds line in any valid state. base must
// be line<<2; the xor folds the line compare and the state!=invalid check
// into one branch (xor result 0 would mean "line matches but invalid", 1-3
// "matches, valid", ≥4 "different line").
func (w way) matches(base uint64) bool { return (w.tag^base)-1 < 3 }

func (w *way) setState(st mesi) { w.tag = w.tag&^3 | uint64(st) }

// bank is one set-associative cache array. Ways are stored flat — set i
// occupies ways[i*nways : (i+1)*nways] — so a set probe is one indexed load
// into a single contiguous allocation instead of a pointer chase through a
// slice of slices; the hot fastHit slot-0 probe and every set scan benefit.
//
// Every set is kept in recency order: slot 0 holds the most recently
// touched way and the last slot the least recently touched, so position
// replaces an LRU stamp. A hit or a fill puts its line at slot 0 and shifts
// the ways that were above it down one slot; an invalidation leaves an
// invalid way in place, which the next fill into the set takes first. The
// order of the valid ways is therefore exactly the order of their last
// touches, and the last slot of a full set is the LRU victim.
//
// Banks carry no presence index of their own (see newBank); the hierarchy's
// l3pres table answers L3 presence for all sockets with one probe.
type bank struct {
	ways    []way
	setMask uint64
	nways   uint64
}

// set returns the ways of line's set.
func (b *bank) set(line uint64) []way {
	base := (line & b.setMask) * b.nways
	return b.ways[base : base+b.nways]
}

// nsets is the number of sets in the bank.
func (b *bank) nsets() int { return int(b.setMask + 1) }

// No bank carries its own presence index. The L2 is hit-heavy — every L1
// miss that hits L2 would pay the probe on top of the scan, and every fill
// would pay the index maintenance (measured as a clear loss). The L3 banks
// used to carry one, but the hierarchy-wide l3pres table now answers "which
// socket's L3 holds this line" in a single probe, so every per-bank L3 call
// is already known to hit and a local index would only add overhead.
//
// The way array comes from the recycler, so a capture reuses the arrays a
// parked machine released.
func newBank(size uint64, ways int, lineSize uint64) bank {
	nsets := size / lineSize / uint64(ways)
	return bank{
		ways:    wayArrays.Get(int(nsets) * ways),
		setMask: nsets - 1,
		nways:   uint64(ways),
	}
}

// lookup returns the way holding line, or nil. A hit becomes the most
// recent way: it moves to slot 0 and the ways above it shift down one
// slot, so repeat lookups of hot lines touch one slot instead of scanning
// the whole set.
func (b *bank) lookup(line uint64) *way {
	set := b.set(line)
	base := line << 2
	for i := range set {
		if set[i].matches(base) {
			if i != 0 {
				w := set[i]
				for j := i; j > 0; j-- {
					set[j] = set[j-1]
				}
				set[0] = w
			}
			return &set[0]
		}
	}
	return nil
}

// place writes tag at slot 0 of set, as the set's most recent way. The
// victim is the first invalid slot, else the last slot, which holds the
// least recently touched way: the ways above it shift down one, in the same
// single pass that finds it, and place returns the way it displaced (an
// invalid one when a free slot took the shift).
func place(set []way, tag uint64) way {
	prev := way{tag: tag}
	for i := range set {
		cur := set[i]
		set[i] = prev
		if cur.tag&3 == 0 {
			return cur
		}
		prev = cur
	}
	return prev
}

// insert places line into its set with the given state, as the set's most
// recent way, and returns the evicted victim (state != invalid) if one was
// displaced.
func (b *bank) insert(line uint64, st mesi) (victim way) {
	victim = place(b.set(line), wayTag(line, st))
	if victim.tag&3 == 0 {
		return way{}
	}
	return victim
}

// promote installs line, which the bank does not hold, as insert does, and
// returns the line's way at slot 0. The victim is dropped (an L1 victim
// stays in the inclusive L2).
func (b *bank) promote(line uint64, st mesi) *way {
	set := b.set(line)
	place(set, wayTag(line, st))
	return &set[0]
}

// invalidate removes line if present and returns its previous state. The
// invalid way keeps its slot; the next fill into the set takes it.
func (b *bank) invalidate(line uint64) mesi {
	set := b.set(line)
	base := line << 2
	for i := range set {
		if set[i].matches(base) {
			st := set[i].state()
			set[i].tag &^= 3
			return st
		}
	}
	return invalid
}

// setState updates the state of line if present.
func (b *bank) setState(line uint64, st mesi) bool {
	set := b.set(line)
	base := line << 2
	for i := range set {
		if set[i].matches(base) {
			set[i].setState(st)
			return true
		}
	}
	return false
}

// Stats accumulates per-core access counters.
type Stats struct {
	Accesses          uint64
	Writes            uint64
	L1Hits            uint64
	L2Hits            uint64
	L3Hits            uint64
	ForeignHits       uint64 // on-chip foreign-cache transfers
	ForeignRemoteHits uint64 // cross-chip foreign-cache transfers
	DRAMFills         uint64 // fills from the local memory node
	DRAMRemoteFills   uint64 // fills from a remote socket's memory node
	Upgrades          uint64 // writes that had to invalidate sharers
	InvalsSent        uint64 // lines invalidated in other cores by this core's writes
	InvalsRecv        uint64 // lines invalidated in this core by other cores' writes
	WritebacksL3      uint64 // modified lines evicted from private L2 into L3
	LatencySum        uint64
}

// L1Misses is the count of accesses not satisfied by the local L1.
func (s *Stats) L1Misses() uint64 { return s.Accesses - s.L1Hits }

// Add accumulates o into s.
func (s *Stats) Add(o *Stats) {
	s.Accesses += o.Accesses
	s.Writes += o.Writes
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.L3Hits += o.L3Hits
	s.ForeignHits += o.ForeignHits
	s.ForeignRemoteHits += o.ForeignRemoteHits
	s.DRAMFills += o.DRAMFills
	s.DRAMRemoteFills += o.DRAMRemoteFills
	s.Upgrades += o.Upgrades
	s.InvalsSent += o.InvalsSent
	s.InvalsRecv += o.InvalsRecv
	s.WritebacksL3 += o.WritebacksL3
	s.LatencySum += o.LatencySum
}

// priv is one core's private L1+L2 pair. Inclusion: every valid L1 line is
// also present in L2 (same state, conservatively).
// priv is one core's private cache pair. The banks are stored by value so
// the hot probes reach the way arrays through one indirection (the cores
// slice) instead of chasing per-bank pointers.
type priv struct {
	l1 bank
	l2 bank
}

// HomeGranule is the granularity of NUMA home-node assignment: one 4 KB
// page, matching the allocator's slab size.
const HomeGranule = 4096

const homeGranuleShift = 12

// Hierarchy is the full simulated cache system.
type Hierarchy struct {
	cfg       Config
	topo      Topology
	lineShift uint
	cores     []priv
	socket    []int     // core -> socket (cached topo.SocketOf)
	sockMask  []uint64  // socket -> bitmask of its cores
	l3s       []bank    // one victim L3 bank per socket
	dir       *dirTable // line -> holders bitmask (private caches)
	// l3pres indexes all L3 banks at once: line -> bitmask of sockets whose
	// victim bank holds the line. The miss path consults every socket's L3,
	// and on the dominant DRAM-bound misses each per-bank probe is a cache
	// miss of its own; one probe here answers for all sockets. It is a pure
	// presence index — the banks stay the source of truth, and entries are
	// maintained at the four places L3 contents change (victim spill, the
	// two migrate-on-hit paths, and invalidateL3).
	l3pres *dirTable
	stats  []Stats
	// dirProbes counts the directory probes accesses make (see DirProbes).
	// It is kept out of Stats: it measures the simulator, not the machine.
	dirProbes uint64
	// lat caches the per-level latency so hot paths index a table instead of
	// switching, and hitCtr[core][lv] points at the Stats counter a hit at
	// that level bumps (stats is allocated once and ResetStats overwrites
	// elements in place, so the pointers stay valid for the hierarchy's
	// lifetime).
	lat    [NumLevels]uint32
	hitCtr [][NumLevels]*uint64
	// homes maps HomeGranule-sized pages to the socket whose memory node
	// owns them (stored as socket+1 in a dirTable so 0 keeps meaning
	// "unmapped"). Empty (and never consulted) on single-socket topologies;
	// unmapped pages count as node-local. An open-addressed table rather
	// than a Go map because the DRAM-bound misses that dominate the slow
	// path consult it on every fill.
	homes *dirTable
}

// New builds a single-socket hierarchy for n cores. It panics on invalid
// configuration (configurations are programmer-supplied constants, not
// runtime input).
func New(cfg Config, n int) *Hierarchy {
	return NewTopo(cfg, SingleSocket(n))
}

// ValidateTopo reports whether the configuration can be banked across the
// given topology: the machine-total L3 must split evenly into per-socket
// banks that are themselves a valid geometry. Callers turning runtime input
// into a topology (CLI flags, sweeps) should check this before NewTopo,
// which panics on failure.
func (c Config) ValidateTopo(topo Topology) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	if c.L3Size%uint64(topo.Sockets) != 0 {
		return fmt.Errorf("cache: L3 size %d does not split across %d sockets", c.L3Size, topo.Sockets)
	}
	perSocket := c
	perSocket.L3Size = c.L3Size / uint64(topo.Sockets)
	return perSocket.Validate()
}

// NewTopo builds a hierarchy with the given socket topology. Each socket
// gets its own L3 victim bank of L3Size/Sockets bytes (the config's L3Size
// stays the machine total), so the single-socket topology is byte-identical
// to the pre-topology hierarchy. Cross-chip transfers cost LatForeignRemote
// and remote-node memory fills LatDRAMRemote; both fall back to their local
// counterparts when unset.
func NewTopo(cfg Config, topo Topology) *Hierarchy {
	if cfg.LatForeignRemote == 0 {
		cfg.LatForeignRemote = cfg.LatForeign
	}
	if cfg.LatDRAMRemote == 0 {
		cfg.LatDRAMRemote = cfg.LatDRAM
	}
	if err := cfg.ValidateTopo(topo); err != nil {
		panic(err)
	}
	n := topo.NumCores()
	shift := uint(0)
	for 1<<shift != cfg.LineSize {
		shift++
	}
	h := &Hierarchy{
		cfg:       cfg,
		topo:      topo,
		lineShift: shift,
		cores:     make([]priv, n),
		socket:    make([]int, n),
		sockMask:  make([]uint64, topo.Sockets),
		l3s:       make([]bank, topo.Sockets),
		dir:       newDirTable(1 << 16),
		l3pres:    newDirTable(1 << 12),
		stats:     make([]Stats, n),
		homes:     newDirTable(1 << 10),
	}
	h.lat = [NumLevels]uint32{
		L1Hit:         cfg.LatL1,
		L2Hit:         cfg.LatL2,
		L3Hit:         cfg.LatL3,
		ForeignHit:    cfg.LatForeign,
		ForeignRemote: cfg.LatForeignRemote,
		DRAM:          cfg.LatDRAM,
		DRAMRemote:    cfg.LatDRAMRemote,
	}
	h.hitCtr = make([][NumLevels]*uint64, n)
	for i := range h.hitCtr {
		st := &h.stats[i]
		h.hitCtr[i] = [NumLevels]*uint64{
			L1Hit:         &st.L1Hits,
			L2Hit:         &st.L2Hits,
			L3Hit:         &st.L3Hits,
			ForeignHit:    &st.ForeignHits,
			ForeignRemote: &st.ForeignRemoteHits,
			DRAM:          &st.DRAMFills,
			DRAMRemote:    &st.DRAMRemoteFills,
		}
	}
	for s := range h.l3s {
		h.l3s[s] = newBank(cfg.L3Size/uint64(topo.Sockets), cfg.L3Ways, cfg.LineSize)
	}
	for i := range h.cores {
		h.cores[i] = priv{
			l1: newBank(cfg.L1Size, cfg.L1Ways, cfg.LineSize),
			l2: newBank(cfg.L2Size, cfg.L2Ways, cfg.LineSize),
		}
		h.socket[i] = topo.SocketOf(i)
		h.sockMask[h.socket[i]] |= 1 << uint(i)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Topology returns the hierarchy's socket layout.
func (h *Hierarchy) Topology() Topology { return h.topo }

// NumCores returns the number of private cache pairs.
func (h *Hierarchy) NumCores() int { return len(h.cores) }

// SetPageHome assigns the HomeGranule-sized page containing addr to a
// socket's memory node. The allocator calls this as its home-node policy
// places fresh slabs; accesses to unmapped pages are treated as node-local.
func (h *Hierarchy) SetPageHome(addr uint64, socket int) {
	if socket < 0 || socket >= h.topo.Sockets {
		panic(fmt.Sprintf("cache: page home socket %d out of range [0,%d)", socket, h.topo.Sockets))
	}
	if h.topo.Sockets == 1 {
		return // single memory node; nothing to record
	}
	h.homes.Set(addr>>homeGranuleShift, uint64(socket)+1)
}

// HomeOf returns the socket whose memory node owns addr's page, or -1 when
// no home was assigned (treated as local to every socket).
func (h *Hierarchy) HomeOf(addr uint64) int {
	if v := h.homes.Get(addr >> homeGranuleShift); v != 0 {
		return int(v - 1)
	}
	return -1
}

// isRemoteHome reports whether addr's page is homed on a socket other than
// the given one. Unmapped pages (and single-socket machines) are local.
func (h *Hierarchy) isRemoteHome(addr uint64, socket int) bool {
	if h.topo.Sockets == 1 {
		return false
	}
	v := h.homes.Get(addr >> homeGranuleShift)
	return v != 0 && int(v-1) != socket
}

// L1Sets returns the number of associativity sets in each L1.
func (h *Hierarchy) L1Sets() int { return h.cores[0].l1.nsets() }

// evictPrivate handles a victim displaced from a core's private L2: the L1
// copy must go too (inclusion), the directory forgets the core, and modified
// data spills into the shared victim L3.
func (h *Hierarchy) evictPrivate(core int, v way) {
	if v.state() == invalid {
		return
	}
	h.cores[core].l1.invalidate(v.line())
	// One directory probe both forgets the core and reports who is left.
	rest := h.dir.andNot(v.line(), 1<<uint(core))
	h.dirProbes++
	l3 := &h.l3s[h.socket[core]] // victims spill into the evicting chip's L3
	if v.state() == modified || v.state() == exclusive {
		// AMD-style victim L3: private evictions (clean-exclusive or
		// dirty) are installed in L3 so a later miss can hit there.
		h.stats[core].WritebacksL3++
		h.spillL3(h.socket[core], l3, v.line(), modified)
	} else if rest == 0 {
		// Last shared copy leaves the private caches; keep the data
		// reachable in L3 rather than silently dropping it.
		h.spillL3(h.socket[core], l3, v.line(), shared)
	}
}

// spillL3 installs a victim line into socket's L3 bank and keeps the global
// presence index in step: the new line gains the socket's bit, and a line
// the insert displaced (dropped to memory) loses it.
func (h *Hierarchy) spillL3(socket int, l3 *bank, line uint64, st mesi) {
	if v := l3.insert(line, st); v.state() != invalid && v.line() != line {
		h.l3pres.andNot(v.line(), 1<<uint(socket))
	}
	h.l3pres.or(line, 1<<uint(socket))
}

// fill installs line into core's L1+L2 with state st, handling evictions.
func (h *Hierarchy) fill(core int, line uint64, st mesi) {
	p := &h.cores[core]
	if v := p.l2.insert(line, st); v.state() != invalid && v.line() != line {
		h.evictPrivate(core, v)
	}
	// An L1 victim remains in L2 (inclusive), which already tracks its
	// state; nothing else to do.
	p.l1.insert(line, st)
	// The directory already reflects this fill: slowAccess's fused miss
	// probe (dir.swap / dir.fetchOr) wrote the core into the holder set
	// before any fill path runs.
}

// invalidateOthers removes line from every private cache in mask (the
// holder set excluding the accessing core), returning how many copies were
// killed. It touches only the banks: both callers — the write-miss path and
// the Shared write upgrade — have already written the line's final holder
// set, the accessing core alone, with the single dir.swap probe whose old
// mask named these holders, so no per-holder directory update happens here.
func (h *Hierarchy) invalidateOthers(line uint64, mask uint64) int {
	killed := 0
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << uint(i)
		p := &h.cores[i]
		p.l1.invalidate(line)
		if st := p.l2.invalidate(line); st != invalid {
			killed++
			h.stats[i].InvalsRecv++
		}
	}
	return killed
}

// downgradeOthers moves the copies of line held by mask (the holder set
// excluding the accessing core, precomputed by the caller) to shared state
// (a remote read of a modified/exclusive line).
func (h *Hierarchy) downgradeOthers(line uint64, mask uint64) {
	for i := 0; mask != 0; i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		mask &^= 1 << uint(i)
		p := &h.cores[i]
		p.l1.setState(line, shared)
		p.l2.setState(line, shared)
	}
}

// Access performs one access by core to the line containing addr and returns
// where it was satisfied. size is unused beyond the containing line; callers
// split multi-line accesses (see sim.Ctx).
func (h *Hierarchy) Access(core int, addr uint64, write bool) Result {
	line := addr >> h.lineShift
	if r, ok := h.fastHit(core, line, write); ok {
		return r
	}
	return h.slowAccess(core, addr, line, write)
}

// fastHit is the hot-line fast path: one probe of slot 0 of the line's L1
// set — slot 0 holds the set's most recent way, where every slow-path hit
// and fill leaves a line — decides whether the set scans and coherence
// branches of the slow path can matter. On a probe hit it replays exactly
// the mutations the slow path would make: the M-state transitions and the
// counters. A hit at slot 0 is already the most recent way, so the recency
// order needs no write. Reads are served from any valid state — an L1 read
// hit is state-blind, and a line invalidated under a foreign write fails
// the state check. Writes additionally need Modified/Exclusive at slot 0 of
// both levels (a Shared write must pay the slow path's upgrade, and a write
// whose line sits deeper in a set must pay the scans that move it up). The
// probe validates itself against the bank contents; any check failing
// falls back to the slow path with no state touched.
func (h *Hierarchy) fastHit(core int, line uint64, write bool) (Result, bool) {
	p := &h.cores[core]
	base := line << 2
	w1 := &p.l1.ways[(line&p.l1.setMask)*p.l1.nways]
	if !w1.matches(base) {
		return Result{}, false
	}
	st := &h.stats[core]
	if !write {
		st.Accesses++
		st.L1Hits++
		st.LatencySum += uint64(h.lat[L1Hit])
		return Result{Level: L1Hit, Latency: h.lat[L1Hit]}, true
	}
	// A write needs Modified or Exclusive (tag low bits 2 or 3) at slot 0
	// of both levels; xor against base leaves exactly those two values.
	if (w1.tag^base)-2 > 1 {
		return Result{}, false
	}
	w2 := &p.l2.ways[(line&p.l2.setMask)*p.l2.nways]
	if (w2.tag^base)-2 > 1 {
		return Result{}, false
	}
	st.Accesses++
	st.Writes++
	w1.tag |= 3 // Exclusive or Modified -> Modified
	w2.tag |= 3
	st.L1Hits++
	st.LatencySum += uint64(h.lat[L1Hit])
	return Result{Level: L1Hit, Latency: h.lat[L1Hit]}, true
}

// slowAccess is the full access path. It looks in the core's own L1, then
// its L2, before it touches the coherence directory: by inclusion the
// directory lists the core as a holder exactly when its L2 holds the line,
// so a private hit already knows the directory's answer for the core, and
// only a Shared write upgrade (hitUpgrade) and a private miss pay a probe.
func (h *Hierarchy) slowAccess(core int, addr uint64, line uint64, write bool) Result {
	p := &h.cores[core]
	st := &h.stats[core]
	st.Accesses++
	if write {
		st.Writes++
	}

	if w1 := p.l1.lookup(line); w1 != nil {
		if !write {
			// A read hit in L1 is the overwhelmingly common case and, as
			// on real hardware, is invisible to L2 (no LRU touch — the
			// L1 filters it). Inclusion keeps states in sync on the
			// write paths, which still consult L2.
			st.L1Hits++
			st.LatencySum += uint64(h.cfg.LatL1)
			return Result{Level: L1Hit, Latency: h.cfg.LatL1}
		}
		return h.hitUpgrade(core, line, w1, p.l2.lookup(line), L1Hit, h.cfg.LatL1, write)
	}
	if w2 := p.l2.lookup(line); w2 != nil {
		w1 := p.l1.promote(line, w2.state())
		return h.hitUpgrade(core, line, w1, w2, L2Hit, h.cfg.LatL2, write)
	}

	// A private miss probes the directory once, and that probe also
	// writes the state the access ends in, since the core ends up holding
	// the line: a write leaves the core the sole holder (swap), a read
	// adds it to the holders (fetchOr). By inclusion the old mask has no
	// self bit, so it is exactly the set of foreign holders the paths
	// below invalidate or downgrade, without probing again.
	selfBit := uint64(1) << uint(core)
	var others uint64
	if write {
		others = h.dir.swap(line, selfBit)
	} else {
		others = h.dir.fetchOr(line, selfBit)
	}
	h.dirProbes++

	// Miss in the private hierarchy: consult the other cores. A copy on
	// the same chip supplies the line at the on-chip cost; otherwise the
	// transfer crosses the chip interconnect.
	socket := h.socket[core]
	if others != 0 {
		lv, lat := ForeignHit, h.cfg.LatForeign
		if others&h.sockMask[socket] == 0 {
			lv, lat = ForeignRemote, h.cfg.LatForeignRemote
		}
		if write {
			killed := h.invalidateOthers(line, others)
			st.InvalsSent += uint64(killed)
			h.invalidateL3(line)
			h.fill(core, line, modified)
		} else {
			h.downgradeOthers(line, others)
			h.fill(core, line, shared)
		}
		return h.finish(core, st, lv, lat)
	}

	// The victim L3s, located with one probe of the global presence index
	// instead of a per-socket probe cascade (on the DRAM-bound misses that
	// dominate this path, every skipped probe is a skipped cache miss).
	// The banks remain authoritative: a set presence bit still goes through
	// the bank's own scan. A hit leaves the victim cache for the private
	// side, so the scan invalidates it in place; the recency order of the
	// set's other ways is unchanged either way.
	if l3mask := h.l3pres.Get(line); l3mask != 0 {
		// The chip's own victim L3.
		if l3mask&(1<<uint(socket)) != 0 {
			if h.l3s[socket].invalidate(line) != invalid {
				h.l3pres.andNot(line, 1<<uint(socket))
				if write {
					h.fill(core, line, modified)
				} else {
					h.fill(core, line, exclusive)
				}
				return h.finish(core, st, L3Hit, h.cfg.LatL3)
			}
		}
		// Another chip's victim L3: still a cache-to-cache supply, but the
		// line crosses the interconnect like any other cross-chip transfer.
		for m := l3mask &^ (1 << uint(socket)); m != 0; {
			s := bits.TrailingZeros64(m)
			m &^= 1 << uint(s)
			if h.l3s[s].invalidate(line) != invalid {
				h.l3pres.andNot(line, 1<<uint(s))
				if write {
					h.fill(core, line, modified)
				} else {
					h.fill(core, line, exclusive)
				}
				return h.finish(core, st, ForeignRemote, h.cfg.LatForeignRemote)
			}
		}
	}

	// Memory: local node unless the page is homed on another socket.
	if write {
		h.fill(core, line, modified)
	} else {
		h.fill(core, line, exclusive)
	}
	if h.isRemoteHome(addr, socket) {
		return h.finish(core, st, DRAMRemote, h.cfg.LatDRAMRemote)
	}
	return h.finish(core, st, DRAM, h.cfg.LatDRAM)
}

// invalidateL3 removes line from every socket's victim bank. The presence
// index names the holding sockets (usually none), so the common case is one
// probe and no bank touches at all.
func (h *Hierarchy) invalidateL3(line uint64) {
	i, ok := h.l3pres.Find(line)
	if !ok {
		return
	}
	for m := *h.l3pres.At(i); m != 0; m &= m - 1 {
		h.l3s[bits.TrailingZeros64(m)].invalidate(line)
	}
	h.l3pres.DeleteAt(i)
}

// finish records the satisfied level in the core's counters. The level
// switch is flattened to one load through the precomputed per-core counter
// table (see hitCtr).
func (h *Hierarchy) finish(core int, st *Stats, lv Level, lat uint32) Result {
	st.LatencySum += uint64(lat)
	*h.hitCtr[core][lv]++
	return Result{Level: lv, Latency: lat}
}

// hitUpgrade completes a private-cache hit; w1 and w2 are the line's L1 and
// L2 ways. A write to an M/E line needs no coherence traffic. A write to a
// Shared line must invalidate the other copies ("upgrade"), which costs a
// coherence round trip: one dir.swap leaves the core the sole holder and
// its old mask, less the core, names the copies to kill.
func (h *Hierarchy) hitUpgrade(core int, line uint64, w1, w2 *way, lv Level, lat uint32, write bool) Result {
	st := &h.stats[core]
	if !write {
		return h.finish(core, st, lv, lat)
	}
	if w2.state() != shared {
		w2.setState(modified)
		w1.setState(modified)
		return h.finish(core, st, lv, lat)
	}
	// The invalidation round trip prices like the farthest copy: any
	// sharer on another chip pushes the upgrade to the cross-chip cost.
	selfBit := uint64(1) << uint(core)
	others := h.dir.swap(line, selfBit) &^ selfBit
	h.dirProbes++
	killed := h.invalidateOthers(line, others)
	w2.setState(modified)
	w1.setState(modified)
	st.Upgrades++
	st.InvalsSent += uint64(killed)
	l := lat
	if killed > 0 {
		l = h.cfg.LatForeign
		if others&^h.sockMask[h.socket[core]] != 0 {
			l = h.cfg.LatForeignRemote
		}
	}
	return h.finish(core, st, lv, l)
}

// peek is lookup without moving the way.
func (b *bank) peek(line uint64) *way {
	set := b.set(line)
	base := line << 2
	for i := range set {
		if set[i].matches(base) {
			return &set[i]
		}
	}
	return nil
}

// LineContent describes one resident cache line in a contents snapshot.
type LineContent struct {
	Core   int    // -1 for a socket's L3 bank
	Socket int    // socket holding the line (the core's chip, or the bank's)
	Addr   uint64 // line base address
}

// Contents snapshots every valid line in the hierarchy: the cache-contents
// inspection hardware the paper's §7 wishes existed. DProf's oracle
// working-set view (core.OracleWorkingSet) is built on it.
func (h *Hierarchy) Contents() []LineContent {
	var out []LineContent
	shift := h.lineShift
	for ci := range h.cores {
		for _, w := range h.cores[ci].l2.ways {
			if w.state() != invalid {
				out = append(out, LineContent{Core: ci, Socket: h.socket[ci], Addr: w.line() << shift})
			}
		}
	}
	for s := range h.l3s {
		l3 := &h.l3s[s]
		for _, w := range l3.ways {
			if w.state() != invalid {
				out = append(out, LineContent{Core: -1, Socket: s, Addr: w.line() << shift})
			}
		}
	}
	return out
}

// SocketUsage summarizes one socket's cache occupancy: valid lines in its
// cores' private caches (counted at L2, the inclusion root) and in its L3
// victim bank. The working-set view reports it per socket.
type SocketUsage struct {
	Socket       int
	PrivateLines int
	L3Lines      int
}

// Lines returns the socket's total valid line count.
func (u SocketUsage) Lines() int { return u.PrivateLines + u.L3Lines }

// SocketOccupancy counts the valid lines resident on each socket.
func (h *Hierarchy) SocketOccupancy() []SocketUsage {
	out := make([]SocketUsage, h.topo.Sockets)
	for s := range out {
		out[s].Socket = s
	}
	for ci := range h.cores {
		u := &out[h.socket[ci]]
		for _, w := range h.cores[ci].l2.ways {
			if w.state() != invalid {
				u.PrivateLines++
			}
		}
	}
	for s := range h.l3s {
		l3 := &h.l3s[s]
		for _, w := range l3.ways {
			if w.state() != invalid {
				out[s].L3Lines++
			}
		}
	}
	return out
}

// CoreStats returns a copy of core's counters.
func (h *Hierarchy) CoreStats(core int) Stats { return h.stats[core] }

// Totals returns counters summed over all cores.
func (h *Hierarchy) Totals() Stats {
	var t Stats
	for i := range h.stats {
		t.Add(&h.stats[i])
	}
	return t
}

// ResetStats zeroes all counters, DirProbes included (cache contents are
// preserved), so a measurement window can exclude warm-up.
func (h *Hierarchy) ResetStats() {
	for i := range h.stats {
		h.stats[i] = Stats{}
	}
	h.dirProbes = 0
}

// DirProbes returns how many coherence-directory probes accesses have made:
// one per private miss (the fused swap/fetchOr), one per Shared write
// upgrade (swap) and one per private L2 eviction (andNot). It is a
// deterministic measure of the simulator's own work, not a counter of the
// simulated machine, so it is not part of Stats.
func (h *Hierarchy) DirProbes() uint64 { return h.dirProbes }

// Latency returns the configured latency for a level (a precomputed table
// lookup; out-of-range levels price as local DRAM, as before).
func (h *Hierarchy) Latency(lv Level) uint32 {
	if int(lv) < NumLevels {
		return h.lat[lv]
	}
	return h.cfg.LatDRAM
}

// checkInvariants validates MESI single-writer and inclusion properties.
// It is exported through an internal test hook only.
func (h *Hierarchy) checkInvariants() error {
	// Collect every valid private line per core from L2 (inclusion root).
	type holder struct {
		core int
		st   mesi
	}
	lines := make(map[uint64][]holder)
	for c := range h.cores {
		for _, w := range h.cores[c].l2.ways {
			if w.state() != invalid {
				lines[w.line()] = append(lines[w.line()], holder{c, w.state()})
			}
		}
		// Inclusion: every L1 line must be in L2.
		for _, w := range h.cores[c].l1.ways {
			if w.state() == invalid {
				continue
			}
			if h.cores[c].l2.peek(w.line()) == nil {
				return fmt.Errorf("inclusion violated: core %d L1 holds line %#x not in L2", c, w.line())
			}
		}
	}
	for line, hs := range lines {
		var mask uint64
		mod := 0
		for _, x := range hs {
			mask |= 1 << uint(x.core)
			if x.st == modified || x.st == exclusive {
				mod++
			}
		}
		if mod > 0 && len(hs) > 1 {
			return fmt.Errorf("MESI violated: line %#x exclusive/modified with %d holders", line, len(hs))
		}
		if dm := h.dir.Get(line); dm != mask {
			return fmt.Errorf("directory stale for line %#x: dir=%#x actual=%#x", line, dm, mask)
		}
	}
	// Directory must not claim holders that do not exist.
	for line, dm := range h.dir.All() {
		var mask uint64
		if hs, ok := lines[line]; ok {
			for _, x := range hs {
				mask |= 1 << uint(x.core)
			}
		}
		if dm != mask {
			return fmt.Errorf("directory entry for line %#x claims %#x, caches hold %#x", line, dm, mask)
		}
	}
	return nil
}
