package cache_test

// A deliberately naive model of the policy the package documents, and the
// differential tests that hold cache.Hierarchy to it. The model lives in the
// external test package so the compiler keeps it from sharing any code with
// the hierarchy: it represents cache contents as plain sets of resident
// lines (Go maps and recency lists), finds sharers by scanning every core,
// and has no fast path, no packing and no directory.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dprof/internal/cache"
)

// recencySet is one cache bank: for every set index, the resident lines in
// recency order, least recently used first. A full set evicts its front.
type recencySet struct {
	sets  map[uint64][]uint64
	nsets uint64
	ways  int
}

func newRecencySet(size uint64, ways int, lineSize uint64) *recencySet {
	return &recencySet{sets: map[uint64][]uint64{}, nsets: size / lineSize / uint64(ways), ways: ways}
}

func (b *recencySet) index(line uint64) uint64 { return line % b.nsets }

func (b *recencySet) has(line uint64) bool {
	for _, l := range b.sets[b.index(line)] {
		if l == line {
			return true
		}
	}
	return false
}

// remove drops line from its set and reports whether it was resident.
func (b *recencySet) remove(line uint64) bool {
	i := b.index(line)
	for j, l := range b.sets[i] {
		if l == line {
			b.sets[i] = append(b.sets[i][:j:j], b.sets[i][j+1:]...)
			return true
		}
	}
	return false
}

// touch makes a resident line the most recently used of its set.
func (b *recencySet) touch(line uint64) {
	if !b.remove(line) {
		panic(fmt.Sprintf("oracle: touch of non-resident line %#x", line))
	}
	i := b.index(line)
	b.sets[i] = append(b.sets[i], line)
}

// insert adds a line that is not resident as the most recently used of its
// set, evicting the least recently used line when the set is full.
func (b *recencySet) insert(line uint64) (victim uint64, evicted bool) {
	if b.has(line) {
		panic(fmt.Sprintf("oracle: insert of resident line %#x", line))
	}
	i := b.index(line)
	s := b.sets[i]
	if len(s) == b.ways {
		victim, evicted = s[0], true
		s = s[1:]
	}
	b.sets[i] = append(s[:len(s):len(s)], line)
	return victim, evicted
}

type state uint8

const (
	stShared state = iota + 1
	stExclusive
	stModified
)

// oracleCore is one core's private pair: L2 is the inclusion root and holds
// the line's MESI state; L1 is a subset of it with the same state.
type oracleCore struct {
	socket int
	l1, l2 *recencySet
	lines  map[uint64]state
	stats  cache.Stats
}

// oracle is the naive hierarchy.
type oracle struct {
	cfg   cache.Config
	shift uint
	cores []*oracleCore
	l3    []*recencySet // one victim bank per socket
	homes map[uint64]int
}

func newOracle(cfg cache.Config, topo cache.Topology) *oracle {
	if cfg.LatForeignRemote == 0 {
		cfg.LatForeignRemote = cfg.LatForeign
	}
	if cfg.LatDRAMRemote == 0 {
		cfg.LatDRAMRemote = cfg.LatDRAM
	}
	o := &oracle{cfg: cfg, homes: map[uint64]int{}}
	for uint64(1)<<o.shift != cfg.LineSize {
		o.shift++
	}
	for s := 0; s < topo.Sockets; s++ {
		o.l3 = append(o.l3, newRecencySet(cfg.L3Size/uint64(topo.Sockets), cfg.L3Ways, cfg.LineSize))
		for c := 0; c < topo.CoresPerSocket; c++ {
			o.cores = append(o.cores, &oracleCore{
				socket: s,
				l1:     newRecencySet(cfg.L1Size, cfg.L1Ways, cfg.LineSize),
				l2:     newRecencySet(cfg.L2Size, cfg.L2Ways, cfg.LineSize),
				lines:  map[uint64]state{},
			})
		}
	}
	return o
}

// setPageHome records the socket whose memory node owns addr's 4 KB page.
func (o *oracle) setPageHome(addr uint64, socket int) { o.homes[addr/cache.HomeGranule] = socket }

// holders lists every core other than self whose private caches hold line.
func (o *oracle) holders(line uint64, self int) []int {
	var out []int
	for i, c := range o.cores {
		if _, ok := c.lines[line]; ok && i != self {
			out = append(out, i)
		}
	}
	return out
}

func (o *oracle) access(core int, addr uint64, write bool) cache.Result {
	line := addr >> o.shift
	c := o.cores[core]
	c.stats.Accesses++
	if write {
		c.stats.Writes++
	}
	if st, ok := c.lines[line]; ok {
		lv, lat := cache.L2Hit, o.cfg.LatL2
		if c.l1.has(line) {
			lv, lat = cache.L1Hit, o.cfg.LatL1
			c.l1.touch(line)
			if !write {
				// An L1 read hit is filtered by L1: L2's recency is untouched.
				return o.finish(c, lv, lat)
			}
			c.l2.touch(line)
		} else {
			c.l2.touch(line)
			c.l1.insert(line) // the L1 victim stays in L2
		}
		if !write {
			return o.finish(c, lv, lat)
		}
		if st == stShared {
			// Upgrade: every other copy dies, priced like the farthest one.
			others := o.holders(line, core)
			if len(others) > 0 {
				lat = o.cfg.LatForeign
			}
			for _, i := range others {
				o.invalidate(i, line)
				if o.cores[i].socket != c.socket {
					lat = o.cfg.LatForeignRemote
				}
			}
			c.stats.Upgrades++
			c.stats.InvalsSent += uint64(len(others))
		}
		c.lines[line] = stModified
		return o.finish(c, lv, lat)
	}

	if others := o.holders(line, core); len(others) > 0 {
		lv, lat := cache.ForeignRemote, o.cfg.LatForeignRemote
		for _, i := range others {
			if o.cores[i].socket == c.socket {
				lv, lat = cache.ForeignHit, o.cfg.LatForeign
			}
		}
		if write {
			for _, i := range others {
				o.invalidate(i, line)
			}
			c.stats.InvalsSent += uint64(len(others))
			for _, b := range o.l3 {
				b.remove(line)
			}
			o.fill(core, line, stModified)
		} else {
			for _, i := range others {
				o.cores[i].lines[line] = stShared
			}
			o.fill(core, line, stShared)
		}
		return o.finish(c, lv, lat)
	}

	fresh := stExclusive
	if write {
		fresh = stModified
	}
	// Victim L3: the own chip's bank first, then the others in socket order.
	// A hit migrates the line out of the bank.
	if o.l3[c.socket].remove(line) {
		o.fill(core, line, fresh)
		return o.finish(c, cache.L3Hit, o.cfg.LatL3)
	}
	for s, b := range o.l3 {
		if s != c.socket && b.remove(line) {
			o.fill(core, line, fresh)
			return o.finish(c, cache.ForeignRemote, o.cfg.LatForeignRemote)
		}
	}
	o.fill(core, line, fresh)
	if home, ok := o.homes[addr/cache.HomeGranule]; ok && home != c.socket {
		return o.finish(c, cache.DRAMRemote, o.cfg.LatDRAMRemote)
	}
	return o.finish(c, cache.DRAM, o.cfg.LatDRAM)
}

// invalidate kills core i's copy of line on behalf of a foreign write.
func (o *oracle) invalidate(i int, line uint64) {
	c := o.cores[i]
	delete(c.lines, line)
	c.l1.remove(line)
	c.l2.remove(line)
	c.stats.InvalsRecv++
}

// fill installs line in core's L2 and then its L1. An L2 victim leaves the
// core entirely (inclusion) before the L1 insert picks its own victim.
func (o *oracle) fill(core int, line uint64, st state) {
	c := o.cores[core]
	if v, ok := c.l2.insert(line); ok {
		vst := c.lines[v]
		delete(c.lines, v)
		c.l1.remove(v)
		// Modified and Exclusive victims, and the last shared copy of a
		// line, spill into the evicting chip's victim L3.
		if vst == stModified || vst == stExclusive {
			c.stats.WritebacksL3++
			o.l3[c.socket].insert(v)
		} else if len(o.holders(v, -1)) == 0 {
			o.l3[c.socket].insert(v)
		}
	}
	c.l1.insert(line)
	c.lines[line] = st
}

func (o *oracle) finish(c *oracleCore, lv cache.Level, lat uint32) cache.Result {
	switch lv {
	case cache.L1Hit:
		c.stats.L1Hits++
	case cache.L2Hit:
		c.stats.L2Hits++
	case cache.L3Hit:
		c.stats.L3Hits++
	case cache.ForeignHit:
		c.stats.ForeignHits++
	case cache.ForeignRemote:
		c.stats.ForeignRemoteHits++
	case cache.DRAM:
		c.stats.DRAMFills++
	case cache.DRAMRemote:
		c.stats.DRAMRemoteFills++
	}
	c.stats.LatencySum += uint64(lat)
	return cache.Result{Level: lv, Latency: lat}
}

// contents lists the oracle's resident lines the way Hierarchy.Contents
// reports them — every core's private lines (L2 is the inclusion root) and
// every socket's L3 lines — sorted by compareContent.
func (o *oracle) contents() []cache.LineContent {
	var out []cache.LineContent
	for i, c := range o.cores {
		for line := range c.lines {
			out = append(out, cache.LineContent{Core: i, Socket: c.socket, Addr: line << o.shift})
		}
	}
	for s, b := range o.l3 {
		for _, set := range b.sets {
			for _, line := range set {
				out = append(out, cache.LineContent{Core: -1, Socket: s, Addr: line << o.shift})
			}
		}
	}
	slices.SortFunc(out, compareContent)
	return out
}

// occupancy counts the oracle's resident lines per socket.
func (o *oracle) occupancy() []cache.SocketUsage {
	out := make([]cache.SocketUsage, len(o.l3))
	for s, b := range o.l3 {
		out[s].Socket = s
		for _, set := range b.sets {
			out[s].L3Lines += len(set)
		}
	}
	for _, c := range o.cores {
		out[c.socket].PrivateLines += len(c.lines)
	}
	return out
}

func compareContent(a, b cache.LineContent) int {
	return cmp.Or(cmp.Compare(a.Core, b.Core), cmp.Compare(a.Socket, b.Socket), cmp.Compare(a.Addr, b.Addr))
}

// checkContents compares the hierarchy's Contents, as a sorted set, and its
// SocketOccupancy with the oracle's resident lines: the state the
// working-set views read.
func checkContents(h *cache.Hierarchy, o *oracle) error {
	got, want := h.Contents(), o.contents()
	slices.SortFunc(got, compareContent)
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i == len(got):
			return fmt.Errorf("contents: oracle also holds %+v", want[i])
		case i == len(want):
			return fmt.Errorf("contents: hierarchy also holds %+v", got[i])
		case got[i] != want[i]:
			return fmt.Errorf("contents differ at entry %d of %d: hierarchy %+v, oracle %+v", i, len(want), got[i], want[i])
		}
	}
	if g, w := h.SocketOccupancy(), o.occupancy(); !slices.Equal(g, w) {
		return fmt.Errorf("socket occupancy: hierarchy %+v, oracle %+v", g, w)
	}
	return nil
}

// op is one step of a differential stream: an access, or (home >= 0) a
// page-home assignment for addr.
type op struct {
	core  int
	addr  uint64
	write bool
	home  int
}

// pair drives a hierarchy and the oracle in lockstep.
type pair struct {
	h      *cache.Hierarchy
	o      *oracle
	checks bool // CheckInvariants after every access
	n      int  // accesses so far
}

func newPair(cfg cache.Config, topo cache.Topology) *pair {
	return &pair{h: cache.NewTopo(cfg, topo), o: newOracle(cfg, topo)}
}

// step applies one op to both sides and reports the first disagreement,
// returning the access's Result.
func (p *pair) step(x op) (cache.Result, error) {
	if x.home >= 0 {
		p.h.SetPageHome(x.addr, x.home)
		p.o.setPageHome(x.addr, x.home)
		return cache.Result{}, nil
	}
	p.n++
	got := p.h.Access(x.core, x.addr, x.write)
	want := p.o.access(x.core, x.addr, x.write)
	if got != want {
		return got, fmt.Errorf("access %d (core %d addr %#x write %v): hierarchy %v/%d, oracle %v/%d",
			p.n, x.core, x.addr, x.write, got.Level, got.Latency, want.Level, want.Latency)
	}
	for c := range p.o.cores {
		if hStats, oStats := p.h.CoreStats(c), p.o.cores[c].stats; hStats != oStats {
			return got, fmt.Errorf("access %d (core %d addr %#x write %v): core %d stats\nhierarchy %+v\noracle    %+v",
				p.n, x.core, x.addr, x.write, c, hStats, oStats)
		}
	}
	if p.checks {
		if err := p.h.CheckInvariants(); err != nil {
			return got, fmt.Errorf("access %d: %v", p.n, err)
		}
	}
	return got, nil
}

// geometry builds a small random configuration: few sets and ways so that
// evictions, L3 spills and set conflicts happen within a short stream, and
// distinct latencies so that a level mix-up changes the Result. Remote
// latencies are sometimes left zero to exercise their local fallbacks.
func geometry(rng *rand.Rand, sockets int) cache.Config {
	pick := func(xs ...uint64) uint64 { return xs[rng.Intn(len(xs))] }
	line := pick(16, 32, 64, 128)
	l1Ways, l1Sets := pick(1, 2, 4), pick(1, 2, 4, 8)
	l2Ways, l2Sets := pick(1, 2, 4, 8), pick(2, 4, 8, 16)
	l3Ways, l3Sets := pick(1, 2, 4, 8), pick(1, 2, 4, 8, 16)
	cfg := cache.Config{
		LineSize:   line,
		L1Size:     l1Ways * l1Sets * line,
		L1Ways:     int(l1Ways),
		L2Size:     l2Ways * l2Sets * line,
		L2Ways:     int(l2Ways),
		L3Size:     l3Ways * l3Sets * line * uint64(sockets),
		L3Ways:     int(l3Ways),
		LatL1:      1 + uint32(rng.Intn(3)),
		LatL2:      10 + uint32(rng.Intn(5)),
		LatL3:      30 + uint32(rng.Intn(10)),
		LatForeign: 100 + uint32(rng.Intn(50)),
		LatDRAM:    200 + uint32(rng.Intn(50)),
	}
	if rng.Intn(4) != 0 {
		cfg.LatForeignRemote = 300 + uint32(rng.Intn(50))
		cfg.LatDRAMRemote = 400 + uint32(rng.Intn(50))
	}
	return cfg
}

// randomOps generates n accesses over a footprint sized against cfg's total
// capacity, with a hot subset so private re-hits, sharing, upgrades and
// evictions all occur, and (on multi-socket machines) page-home assignments
// sprinkled through the stream.
func randomOps(rng *rand.Rand, cfg cache.Config, topo cache.Topology, n int) []op {
	cores := topo.NumCores()
	capLines := (uint64(cores)*cfg.L2Size + cfg.L3Size) / cfg.LineSize
	footprint := 1 + capLines/2 + uint64(rng.Int63n(int64(2*capLines)))
	hot := 1 + footprint/8
	writeEvery := 2 + rng.Intn(4)
	var ops []op
	for len(ops) < n {
		if topo.Sockets > 1 && rng.Intn(50) == 0 {
			page := uint64(rng.Int63n(int64(footprint*cfg.LineSize/cache.HomeGranule + 1)))
			ops = append(ops, op{addr: page * cache.HomeGranule, home: rng.Intn(topo.Sockets)})
			continue
		}
		l := uint64(rng.Int63n(int64(footprint)))
		if rng.Intn(2) == 0 {
			l = uint64(rng.Int63n(int64(hot)))
		}
		ops = append(ops, op{
			core:  rng.Intn(cores),
			addr:  l*cfg.LineSize + uint64(rng.Int63n(int64(cfg.LineSize))),
			write: rng.Intn(writeEvery) == 0,
			home:  -1,
		})
	}
	return ops
}

// runOps runs ops through the pair, then compares the resident lines.
func runOps(t *testing.T, p *pair, ops []op) {
	t.Helper()
	for _, x := range ops {
		if _, err := p.step(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkContents(p.h, p.o); err != nil {
		t.Fatalf("after %d accesses: %v", p.n, err)
	}
}

// TestOracleRandomTopologies runs random streams over random topologies
// (1x1 up to 4x4, plus one 64-core machine) and random small geometries,
// comparing every Result and every core's counters after every access, and
// the resident lines at the end of each round. The first round on each
// topology also checks the hierarchy's invariants after every access; that
// check scans the whole directory table, so its streams are shorter.
func TestOracleRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, checked := 20_000, 1_000
	if testing.Short() {
		n, checked = 4_000, 300
	}
	var topos []cache.Topology
	for s := 1; s <= 4; s++ {
		for c := 1; c <= 4; c++ {
			topos = append(topos, cache.Topology{Sockets: s, CoresPerSocket: c})
		}
	}
	topos = append(topos, cache.Topology{Sockets: 4, CoresPerSocket: 16})
	for _, topo := range topos {
		for round := 0; round < 3; round++ {
			cfg := geometry(rng, topo.Sockets)
			length := n
			if round == 0 {
				length = checked
			}
			ops := randomOps(rng, cfg, topo, length)
			t.Run(fmt.Sprintf("%s/%d", topo, round), func(t *testing.T) {
				t.Parallel()
				p := newPair(cfg, topo)
				p.checks = round == 0
				runOps(t, p, ops)
			})
		}
	}
}

// TestOracleRandomStream is the 200k-access random stream over the default
// geometry: a 16 KB footprint shared by four cores.
func TestOracleRandomStream(t *testing.T) {
	const cores = 4
	p := newPair(cache.DefaultConfig(), cache.SingleSocket(cores))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200_000; i++ {
		x := op{core: rng.Intn(cores), addr: uint64(rng.Intn(1<<14)) &^ 7, write: rng.Intn(3) == 0, home: -1}
		if _, err := p.step(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleConflictHeavyStream strides eight lines over the default
// geometry's 2-way L1 sets from two cores, so nearly every access evicts.
func TestOracleConflictHeavyStream(t *testing.T) {
	const cores = 2
	cfg := cache.DefaultConfig()
	p := newPair(cfg, cache.SingleSocket(cores))
	stride := cfg.L1Size / uint64(cfg.L1Ways)
	for i := 0; i < 50_000; i++ {
		x := op{core: i % cores, addr: uint64(i%8) * stride, write: i%2 == 0, home: -1}
		if _, err := p.step(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleScenarios pins the oracle itself to hand-derived outcomes, so
// that a bug shared by the oracle and the hierarchy cannot hide behind their
// agreement. Every access also runs through the hierarchy and must agree.
func TestOracleScenarios(t *testing.T) {
	def := cache.DefaultConfig()
	// tiny has one 2-way L1 set and one 2-way L2 set per core, so any three
	// lines conflict, and two 2-way L3 sets per socket.
	tiny := def
	tiny.L1Size, tiny.L1Ways = 2*64, 2
	tiny.L2Size, tiny.L2Ways = 2*64, 2
	tiny.L3Size, tiny.L3Ways = 4*64, 2
	// wide keeps tiny's one-set L1 but gives L2 four sets, so a, b and c
	// conflict in L1 only.
	wide := tiny
	wide.L2Size = 8 * 64
	const a, b, c = 0x0, 0x40, 0x80
	const x, y = 0x4000, 0x8000 // y's page is homed on socket 1
	type step struct {
		core  int
		addr  uint64
		write bool
		level cache.Level
		lat   uint32 // 0: the level's own latency
	}
	for _, sc := range []struct {
		name  string
		cfg   cache.Config
		topo  cache.Topology
		steps []step
	}{
		{"private hits", def, cache.SingleSocket(2), []step{
			{0, x, true, cache.DRAM, 0},
			{0, x, false, cache.L1Hit, 0},
			{0, x, false, cache.L1Hit, 0},
			{0, x, true, cache.L1Hit, 0},
		}},
		{"foreign read then upgrade", def, cache.SingleSocket(2), []step{
			{0, x, true, cache.DRAM, 0},
			{0, x, false, cache.L1Hit, 0},
			{1, x, false, cache.ForeignHit, 0}, // downgrades core 0 to Shared
			{0, x, true, cache.L1Hit, def.LatForeign},
			{1, x, false, cache.ForeignHit, 0},
		}},
		{"cross-chip transfer and upgrade", def, cache.Topology{Sockets: 2, CoresPerSocket: 1}, []step{
			{0, x, false, cache.DRAM, 0},
			{1, x, false, cache.ForeignRemote, 0},
			{1, x, true, cache.L1Hit, def.LatForeignRemote},
			{0, x, false, cache.ForeignRemote, 0},
		}},
		{"L1 read hits leave L2 recency alone", tiny, cache.SingleSocket(1), []step{
			{0, a, false, cache.DRAM, 0},
			{0, b, false, cache.DRAM, 0},
			{0, a, false, cache.L1Hit, 0}, // a is still L2's LRU line
			{0, c, false, cache.DRAM, 0},  // so L2 evicts a, not b
			{0, a, false, cache.L3Hit, 0},
			{0, b, false, cache.L3Hit, 0},
		}},
		{"M eviction spills to the victim L3", tiny, cache.SingleSocket(1), []step{
			{0, a, true, cache.DRAM, 0},
			{0, b, false, cache.DRAM, 0},
			{0, c, false, cache.DRAM, 0}, // evicts a (Modified)
			{0, a, false, cache.L3Hit, 0},
			{0, a, false, cache.L1Hit, 0},
		}},
		{"only the last shared copy spills", tiny, cache.SingleSocket(2), []step{
			{0, a, false, cache.DRAM, 0},
			{1, a, false, cache.ForeignHit, 0},
			{0, b, false, cache.DRAM, 0},
			{0, c, false, cache.DRAM, 0},       // core 0 drops a; core 1 still shares it
			{1, b, false, cache.ForeignHit, 0}, // core 1 evicts nothing yet
			{1, c, false, cache.ForeignHit, 0}, // core 1 drops the last copy of a
			{0, a, false, cache.L3Hit, 0},
		}},
		{"L2 hit promotes into a full L1 set", wide, cache.SingleSocket(1), []step{
			{0, a, false, cache.DRAM, 0},
			{0, b, false, cache.DRAM, 0},
			{0, c, false, cache.DRAM, 0},  // L1 drops a, L2 keeps it
			{0, a, false, cache.L2Hit, 0}, // a evicts b, L1's LRU line
			{0, b, false, cache.L2Hit, 0}, // the L1 victim stayed in L2
			{0, a, false, cache.L1Hit, 0},
			{0, c, false, cache.L2Hit, 0},
		}},
		{"Shared write upgrade on an L1 hit, on-chip and cross-chip", tiny, cache.Topology{Sockets: 2, CoresPerSocket: 2}, []step{
			{0, a, false, cache.DRAM, 0},
			{0, b, false, cache.DRAM, 0},                    // b in L1 way 1
			{1, b, false, cache.ForeignHit, 0},              // core 0 drops to Shared
			{0, b, true, cache.L1Hit, def.LatForeign},       // kills core 1's copy on chip
			{2, b, false, cache.ForeignRemote, 0},           // core 0 drops to Shared
			{0, a, false, cache.L1Hit, 0},                   // b back to L1 way 1
			{0, b, true, cache.L1Hit, def.LatForeignRemote}, // kills core 2's copy across chips
			{1, b, false, cache.ForeignHit, 0},
		}},
		{"remote home", def, cache.Topology{Sockets: 2, CoresPerSocket: 2}, []step{
			{0, y, false, cache.DRAMRemote, 0},
			{2, y + 64, false, cache.DRAM, 0},                // socket 1's own node
			{1, y + cache.HomeGranule, false, cache.DRAM, 0}, // unmapped page: local
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			p := newPair(sc.cfg, sc.topo)
			p.checks = true
			if sc.topo.Sockets > 1 {
				if _, err := p.step(op{addr: y, home: 1}); err != nil {
					t.Fatal(err)
				}
			}
			for i, s := range sc.steps {
				r, err := p.step(op{core: s.core, addr: s.addr, write: s.write, home: -1})
				if err != nil {
					t.Fatal(err)
				}
				lat := s.lat
				if lat == 0 {
					lat = latencyOf(sc.cfg, s.level)
				}
				if want := (cache.Result{Level: s.level, Latency: lat}); r != want {
					t.Fatalf("step %d (core %d addr %#x write %v): %v/%d, want %v/%d",
						i, s.core, s.addr, s.write, r.Level, r.Latency, want.Level, want.Latency)
				}
			}
		})
	}
}

func latencyOf(cfg cache.Config, lv cache.Level) uint32 {
	return map[cache.Level]uint32{
		cache.L1Hit: cfg.LatL1, cache.L2Hit: cfg.LatL2, cache.L3Hit: cfg.LatL3,
		cache.ForeignHit: cfg.LatForeign, cache.ForeignRemote: cfg.LatForeignRemote,
		cache.DRAM: cfg.LatDRAM, cache.DRAMRemote: cfg.LatDRAMRemote,
	}[lv]
}
