// Package mem implements the simulated kernel memory subsystem: a typed SLAB
// allocator in the style of the Linux allocator the paper instruments (§5.2).
//
// Every allocation comes from a per-type pool ("kmem_cache"), carved out of
// 4 KB slabs. Each pool has per-CPU array caches for fast local alloc/free,
// and per-home-core alien caches that buffer objects freed on a core other
// than the one that owns the slab — the __drain_alien_cache behaviour central
// to the memcached case study. Slab bookkeeping ("slab") and the array caches
// ("array_cache") are themselves typed simulated objects, so their cache
// misses show up in DProf's data profile just as they do in Table 6.1.
//
// The allocator is also DProf's type oracle: Resolve maps any simulated
// address back to (type, object base, offset), and alloc/free hooks feed
// DProf's address set and object-history collection.
package mem

import (
	"fmt"
	"sort"
	"strings"

	"dprof/internal/cache"
	"dprof/internal/hashtab"
	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

const (
	// SlabBytes is the size of one slab (one page, like Linux order-0 SLABs).
	SlabBytes = 4096
	// SlabShift is log2(SlabBytes).
	SlabShift = 12

	// Address-space layout. Regions never overlap; all object addresses are
	// derived from these bases.
	staticBase   = 0x0010_0000 // statically-allocated (global) objects
	slabBase     = 0x4000_0000 // dynamic slabs
	internalBase = 0x8000_0000 // slab bookkeeping + array caches

	// DefaultAlign is the default object alignment: one cache line, which is
	// how the kernel aligns most of its hot structures. Types may opt into a
	// smaller alignment to exhibit false sharing.
	DefaultAlign = 64
)

// Policy selects the NUMA home node of freshly-allocated slabs on
// multi-socket machines (it is inert on the single-socket default).
type Policy int

const (
	// FirstTouch homes each slab on the socket of the core that grew the
	// pool — the Linux default, and the policy that keeps per-core slabs
	// node-local.
	FirstTouch Policy = iota
	// Interleave spreads slabs round-robin across sockets.
	Interleave
	// Pinned homes every slab on Config.PinnedNode.
	Pinned
)

// String names the policy (the -alloc-policy CLI value).
func (p Policy) String() string {
	switch p {
	case FirstTouch:
		return "firsttouch"
	case Interleave:
		return "interleave"
	case Pinned:
		return "pinned"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PolicyNames lists the accepted ParsePolicy spellings.
func PolicyNames() []string { return []string{"firsttouch", "interleave", "pinned"} }

// ParsePolicy parses a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "firsttouch", "first-touch", "local", "":
		return FirstTouch, nil
	case "interleave":
		return Interleave, nil
	case "pinned":
		return Pinned, nil
	}
	return FirstTouch, fmt.Errorf("mem: unknown allocation policy %q (known: %s)",
		s, strings.Join(PolicyNames(), ", "))
}

// Config tunes the allocator's caching behaviour.
type Config struct {
	ArrayCacheCap int // per-CPU free-object stack capacity
	BatchCount    int // objects moved per refill/flush
	AlienCap      int // alien cache capacity per (pool, home core)

	// Policy and PinnedNode choose slab NUMA homes; see Policy. They take
	// effect once BindMachine attaches the allocator to a multi-socket
	// machine.
	Policy     Policy
	PinnedNode int
}

// DefaultConfig mirrors typical Linux SLAB tunables (first-touch homes).
func DefaultConfig() Config {
	return Config{ArrayCacheCap: 32, BatchCount: 16, AlienCap: 12}
}

// Type describes a typed object class (a kmem_cache, or a static object).
type Type struct {
	Name string
	Desc string
	Size uint64 // requested object size in bytes

	objSize  uint64 // Size rounded up to the pool's alignment
	pool     *pool
	internal bool // allocator-internal (slab, array_cache) or static
	index    int  // registration order within the allocator
}

// ObjSize returns the aligned per-object footprint.
func (t *Type) ObjSize() uint64 { return t.objSize }

// Index returns the type's dense registration index within its allocator
// (its position in Types), so per-type state can live in a slice.
func (t *Type) Index() int { return t.index }

// slabInfo is the bookkeeping for one slab (a contiguous run of objects of a
// single type). For dynamic slabs, metaAddr is the simulated address of the
// corresponding "slab" bookkeeping object; accesses to the freelist during
// refill/drain hit that address.
type slabInfo struct {
	t        *Type
	base     uint64
	objSize  uint64
	nobj     int
	home     int // core whose traffic allocated this slab
	metaAddr uint64
	free     []uint64
	inuse    int
}

// arrayCache is a per-CPU (or alien) stack of free objects. Its addr is the
// simulated address of the 128-byte array_cache structure.
type arrayCache struct {
	addr uint64
	objs []uint64
}

type pool struct {
	t      *Type
	kcAddr uint64 // the kmem_cache structure's simulated address
	lock   lockstat.Lock

	perCPU []*arrayCache
	alien  []*arrayCache // indexed by home core, shared by all remote cores

	partial []*slabInfo // slabs with free objects
	slabs   int

	live  uint64
	peak  uint64
	alloc uint64
	frees uint64
}

// AllocWatcher is invoked once when the next object of a watched type is
// allocated (DProf's history collector uses this to trap a fresh object).
type AllocWatcher func(c *sim.Ctx, addr uint64)

// EventHook observes every allocation or free (DProf's address set).
type EventHook func(c *sim.Ctx, t *Type, addr uint64)

// Allocator is the simulated kernel memory subsystem.
type Allocator struct {
	cfg   Config
	cores int
	locks *lockstat.Registry

	types     map[string]*Type
	typeOrder []*Type

	slabMap    hashtab.Table[*slabInfo] // page number -> slab
	nextSlab   uint64
	nextMeta   uint64
	nextStatic uint64

	slabType *Type // "slab" bookkeeping objects
	acType   *Type // "array_cache" objects
	kcType   *Type // "kmem_cache" pool headers

	// internal carving state per internal type
	carve map[*Type]*slabInfo

	lockClass *lockstat.Class

	statics      []ObjRef
	internalObjs []ObjRef

	// NUMA home binding (nil hier or single-socket topology disables it).
	hier     *cache.Hierarchy
	topo     cache.Topology
	nextNode int // interleave cursor

	onAlloc []EventHook
	onFree  []EventHook
	watch   map[*Type][]AllocWatcher

	// released is set by Release: the page table and the slab freelists
	// are gone until the next RestoreState.
	released bool
}

// New builds an allocator for a machine with the given core count. Lock
// statistics are recorded into locks.
func New(cfg Config, cores int, locks *lockstat.Registry) *Allocator {
	if cfg.ArrayCacheCap <= 0 || cfg.BatchCount <= 0 || cfg.AlienCap <= 0 {
		panic("mem: config values must be positive")
	}
	a := &Allocator{
		cfg:        cfg,
		cores:      cores,
		locks:      locks,
		types:      make(map[string]*Type),
		slabMap:    hashtab.New(3<<10, &slabMapArrays), // 4096 slots
		nextSlab:   slabBase,
		nextMeta:   internalBase,
		nextStatic: staticBase,
		carve:      make(map[*Type]*slabInfo),
		watch:      make(map[*Type][]AllocWatcher),
	}
	a.lockClass = locks.Class("SLAB cache lock")
	a.slabType = a.registerRaw("slab", 256, "SLAB bookkeeping structure", DefaultAlign, true)
	a.acType = a.registerRaw("array_cache", 128, "SLAB per-core bookkeeping structure", DefaultAlign, true)
	a.kcType = a.registerRaw("kmem_cache", 256, "SLAB pool header", DefaultAlign, true)
	return a
}

// BindMachine attaches the allocator's home-node policy to a machine: every
// page the allocator hands out from now on is assigned a NUMA home in the
// machine's cache hierarchy per Config.Policy. Call it right after New, on
// the machine the workload runs on; it is a no-op wiring on single-socket
// machines. (Pages carved before binding stay home-less, i.e. node-local.)
func (a *Allocator) BindMachine(m *sim.Machine) {
	topo := m.Topology()
	if topo.NumCores() != a.cores {
		panic(fmt.Sprintf("mem: allocator built for %d cores, machine has %d", a.cores, topo.NumCores()))
	}
	if a.cfg.Policy == Pinned && (a.cfg.PinnedNode < 0 || a.cfg.PinnedNode >= topo.Sockets) {
		panic(fmt.Sprintf("mem: pinned node %d out of range [0,%d)", a.cfg.PinnedNode, topo.Sockets))
	}
	a.hier = m.Hier
	a.topo = topo
	m.AddSnapshotter(a)
}

// assignHome records the NUMA home of the pages in [base, base+size) per the
// configured policy. core is the allocating core for first-touch, or -1 for
// boot-time placements (homed on node 0 under first-touch).
func (a *Allocator) assignHome(base, size uint64, core int) {
	if a.hier == nil || a.topo.Sockets <= 1 {
		return
	}
	var node int
	switch a.cfg.Policy {
	case Pinned:
		node = a.cfg.PinnedNode
	case Interleave:
		// per-page rotation, handled in the loop
	default: // FirstTouch
		if core >= 0 {
			node = a.topo.SocketOf(core)
		}
	}
	for p := base &^ (SlabBytes - 1); p < base+size; p += SlabBytes {
		if a.cfg.Policy == Interleave {
			node = a.nextNode
			a.nextNode = (a.nextNode + 1) % a.topo.Sockets
		}
		a.hier.SetPageHome(p, node)
	}
}

func (a *Allocator) registerRaw(name string, size uint64, desc string, align uint64, internal bool) *Type {
	if _, ok := a.types[name]; ok {
		panic(fmt.Sprintf("mem: duplicate type %q", name))
	}
	if size == 0 {
		panic(fmt.Sprintf("mem: type %q has zero size", name))
	}
	if align == 0 {
		align = DefaultAlign
	}
	objSize := (size + align - 1) &^ (align - 1)
	t := &Type{Name: name, Desc: desc, Size: size, objSize: objSize, internal: internal, index: len(a.typeOrder)}
	a.types[name] = t
	a.typeOrder = append(a.typeOrder, t)
	return t
}

// RegisterType creates a typed pool with cache-line alignment.
func (a *Allocator) RegisterType(name string, size uint64, desc string) *Type {
	return a.RegisterTypeAligned(name, size, desc, DefaultAlign)
}

// RegisterTypeAligned creates a typed pool with a specific alignment; an
// alignment below the cache-line size lets multiple objects share lines
// (false sharing).
func (a *Allocator) RegisterTypeAligned(name string, size uint64, desc string, align uint64) *Type {
	if size > SlabBytes {
		panic(fmt.Sprintf("mem: type %q size %d exceeds slab size %d", name, size, SlabBytes))
	}
	t := a.registerRaw(name, size, desc, align, false)
	p := &pool{t: t}
	p.kcAddr = a.carveInternal(a.kcType)
	p.lock = *lockstat.NewLock(a.lockClass, p.kcAddr)
	p.perCPU = make([]*arrayCache, a.cores)
	p.alien = make([]*arrayCache, a.cores)
	for i := 0; i < a.cores; i++ {
		p.perCPU[i] = &arrayCache{addr: a.carveInternal(a.acType)}
		p.alien[i] = &arrayCache{addr: a.carveInternal(a.acType)}
	}
	t.pool = p
	return t
}

// Static allocates a named global object (e.g. the net_device structure) and
// returns its address. Static objects resolve like any other typed object.
func (a *Allocator) Static(name string, size uint64, desc string) (*Type, uint64) {
	t, addrs := a.StaticArray(name, size, 1, desc)
	return t, addrs[0]
}

// StaticArray allocates count statically-placed objects of one type (e.g. the
// per-queue Qdisc structures) and returns their addresses. Objects are laid
// out contiguously, cache-line aligned.
func (a *Allocator) StaticArray(name string, objSize uint64, count int, desc string) (*Type, []uint64) {
	if count <= 0 {
		panic(fmt.Sprintf("mem: static array %q with count %d", name, count))
	}
	t := a.registerRaw(name, objSize, desc, DefaultAlign, false)
	// Statics get their own page-aligned region so multi-page layouts stay
	// resolvable: every covered page maps to the same slabInfo.
	base := a.nextStatic
	total := t.objSize * uint64(count)
	pages := (total + SlabBytes - 1) / SlabBytes
	info := &slabInfo{t: t, base: base, objSize: t.objSize, nobj: count, home: -1}
	for p := uint64(0); p < pages; p++ {
		a.slabMap.Set((base+p*SlabBytes)>>SlabShift, info)
	}
	a.assignHome(base, pages*SlabBytes, -1)
	a.nextStatic += pages * SlabBytes
	addrs := make([]uint64, count)
	for i := range addrs {
		addrs[i] = base + uint64(i)*t.objSize
		a.statics = append(a.statics, ObjRef{Type: t, Base: addrs[i]})
	}
	return t, addrs
}

// Statics returns every statically-allocated object (in allocation order).
func (a *Allocator) Statics() []ObjRef { return append([]ObjRef(nil), a.statics...) }

// StaticStrided places count objects of one type at a fixed address stride.
// A stride equal to a multiple of (cache sets x line size) forces every
// object into the same associativity set — the layout the conflict-miss
// example uses; other strides spread ("color") the objects. The stride must
// exceed the page size (one object per page) and objects must not straddle
// pages.
func (a *Allocator) StaticStrided(name string, objSize uint64, count int, stride uint64, desc string) (*Type, []uint64) {
	if count <= 0 {
		panic(fmt.Sprintf("mem: strided array %q with count %d", name, count))
	}
	if stride < SlabBytes {
		panic(fmt.Sprintf("mem: stride %d must be at least one page", stride))
	}
	t := a.registerRaw(name, objSize, desc, DefaultAlign, false)
	base := (a.nextStatic + SlabBytes - 1) &^ (SlabBytes - 1)
	addrs := make([]uint64, count)
	for i := range addrs {
		addr := base + uint64(i)*stride
		if addr%SlabBytes+t.objSize > SlabBytes {
			panic(fmt.Sprintf("mem: strided object %d of %q straddles a page", i, name))
		}
		info := &slabInfo{t: t, base: addr, objSize: t.objSize, nobj: 1, home: -1}
		a.slabMap.Set(addr>>SlabShift, info)
		a.assignHome(addr, t.objSize, -1)
		addrs[i] = addr
		a.statics = append(a.statics, ObjRef{Type: t, Base: addr})
	}
	a.nextStatic = base + uint64(count)*stride + SlabBytes
	return t, addrs
}

// carveInternal hands out allocator-internal objects (slab bookkeeping,
// array caches, pool headers) without simulated memory traffic; these are
// "boot time" allocations. Their runtime traffic comes from pool operations
// touching them afterwards.
func (a *Allocator) carveInternal(t *Type) uint64 {
	s := a.carve[t]
	if s == nil || s.inuse == s.nobj {
		base := a.nextMeta
		a.nextMeta += SlabBytes
		s = &slabInfo{
			t:       t,
			base:    base,
			objSize: t.objSize,
			nobj:    int(SlabBytes / t.objSize),
			home:    -1,
		}
		a.slabMap.Set(base>>SlabShift, s)
		a.assignHome(base, SlabBytes, -1)
		a.carve[t] = s
	}
	addr := s.base + uint64(s.inuse)*s.objSize
	s.inuse++
	a.internalObjs = append(a.internalObjs, ObjRef{Type: t, Base: addr})
	return addr
}

// InternalObjects returns every allocator-internal object (slab bookkeeping,
// array caches, pool headers) carved so far. DProf seeds its address set
// with these: they are long-lived kernel objects with real cache traffic.
func (a *Allocator) InternalObjects() []ObjRef { return append([]ObjRef(nil), a.internalObjs...) }

// LiveObjects enumerates every currently-allocated dynamic object (excluding
// objects parked in per-CPU or alien caches, which are free from the
// caller's point of view). Profilers attaching mid-run use it to seed their
// address sets with objects allocated before attachment.
func (a *Allocator) LiveObjects() []ObjRef {
	cached := make(map[uint64]bool)
	for _, t := range a.typeOrder {
		if t.pool == nil {
			continue
		}
		for _, ac := range t.pool.perCPU {
			for _, o := range ac.objs {
				cached[o] = true
			}
		}
		for _, ac := range t.pool.alien {
			for _, o := range ac.objs {
				cached[o] = true
			}
		}
	}
	var out []ObjRef
	var pages []uint64
	for pg := range a.slabMap.All() {
		pages = append(pages, pg)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	seen := make(map[*slabInfo]bool)
	for _, pg := range pages {
		s := a.slabMap.Get(pg)
		if seen[s] || s.t.pool == nil {
			seen[s] = true
			continue
		}
		seen[s] = true
		free := make(map[uint64]bool, len(s.free))
		for _, o := range s.free {
			free[o] = true
		}
		for i := 0; i < s.nobj; i++ {
			addr := s.base + uint64(i)*s.objSize
			if !free[addr] && !cached[addr] {
				out = append(out, ObjRef{Type: s.t, Base: addr})
			}
		}
	}
	return out
}

// TypeByName returns a registered type, or nil.
func (a *Allocator) TypeByName(name string) *Type { return a.types[name] }

// Types returns all registered types in registration order.
func (a *Allocator) Types() []*Type { return append([]*Type(nil), a.typeOrder...) }

// OnAlloc registers a hook over every dynamic allocation.
func (a *Allocator) OnAlloc(h EventHook) { a.onAlloc = append(a.onAlloc, h) }

// OnFree registers a hook over every dynamic free.
func (a *Allocator) OnFree(h EventHook) { a.onFree = append(a.onFree, h) }

// WatchNextAlloc arranges for fn to run exactly once, when the next object of
// type t is allocated (after the allocation completes, before the caller uses
// the object). Watchers fire in FIFO order, one per allocation.
func (a *Allocator) WatchNextAlloc(t *Type, fn AllocWatcher) {
	a.watch[t] = append(a.watch[t], fn)
}

// growPool adds a fresh slab to the pool (Linux cache_grow), charging page
// allocation cost and initializing the slab bookkeeping object.
func (a *Allocator) growPool(c *sim.Ctx, p *pool, home int) *slabInfo {
	defer c.Leave(c.EnterPC(pcCacheGrow))
	base := a.nextSlab
	a.nextSlab += SlabBytes
	nobj := int(SlabBytes / p.t.objSize)
	if nobj == 0 {
		panic(fmt.Sprintf("mem: object size %d larger than slab", p.t.objSize))
	}
	s := &slabInfo{
		t:        p.t,
		base:     base,
		objSize:  p.t.objSize,
		nobj:     nobj,
		home:     home,
		metaAddr: a.carveInternal(a.slabType),
	}
	s.free = slabFrees.Get(nobj)
	for i := range s.free {
		s.free[i] = base + uint64(nobj-1-i)*s.objSize
	}
	a.slabMap.Set(base>>SlabShift, s)
	a.assignHome(base, SlabBytes, home)
	p.partial = append(p.partial, s)
	p.slabs++
	c.Compute(600)          // page allocator
	c.Write(s.metaAddr, 64) // initialize freelist bookkeeping
	// The fresh bookkeeping object is itself a typed allocation; report it
	// so profilers track the "slab" type's footprint (Table 6.1 lists it).
	for _, h := range a.onAlloc {
		h(c, a.slabType, s.metaAddr)
	}
	return s
}

// refill implements cache_alloc_refill: move a batch of objects from the
// pool's slabs into the calling core's array cache, under the pool lock.
func (a *Allocator) refill(c *sim.Ctx, p *pool, ac *arrayCache) {
	defer c.Leave(c.EnterPC(pcCacheAllocRefill))
	p.lock.Acquire(c)
	c.Read(p.kcAddr+64, 16) // pool freelist heads
	need := a.cfg.BatchCount
	var metas []uint64
	for need > 0 {
		var s *slabInfo
		for len(p.partial) > 0 {
			cand := p.partial[len(p.partial)-1]
			if len(cand.free) > 0 {
				s = cand
				break
			}
			p.partial = p.partial[:len(p.partial)-1]
		}
		if s == nil {
			s = a.growPool(c, p, c.Core.ID)
		}
		c.Read(s.metaAddr, 16) // slab freelist head + bufctl base
		for need > 0 && len(s.free) > 0 {
			obj := s.free[len(s.free)-1]
			s.free = s.free[:len(s.free)-1]
			s.inuse++
			ac.objs = append(ac.objs, obj)
			need--
		}
		metas = append(metas, s.metaAddr)
	}
	p.lock.Release(c)
	// Bookkeeping updates land after the release (see drainAlien).
	for _, meta := range metas {
		c.Write(meta, 16) // updated inuse/freelist
	}
}

// slabSeen reports whether s is already in the batch's touched list.
func slabSeen(touched []*slabInfo, s *slabInfo) bool {
	for _, t := range touched {
		if t == s {
			return true
		}
	}
	return false
}

// flushLocal spills a batch from an over-full local array cache back to the
// slabs (Linux cache_flusharray).
func (a *Allocator) flushLocal(c *sim.Ctx, p *pool, ac *arrayCache) {
	defer c.Leave(c.EnterPC(pcCacheFlusharray))
	p.lock.Acquire(c)
	n := a.cfg.BatchCount
	if n > len(ac.objs) {
		n = len(ac.objs)
	}
	c.Write(ac.addr, 8)
	// touched is a linear-scan list, not a map: a batch spans a handful of
	// distinct slabs and this runs on the free hot path.
	var touched []*slabInfo
	var metas []uint64
	for i := 0; i < n; i++ {
		obj := ac.objs[i]
		s := a.slabMap.Get(obj >> SlabShift)
		s.free = append(s.free, obj)
		s.inuse--
		if !slabSeen(touched, s) {
			touched = append(touched, s)
			metas = append(metas, s.metaAddr)
		}
		if len(s.free) == 1 {
			p.partial = append(p.partial, s)
		}
	}
	ac.objs = append(ac.objs[:0], ac.objs[n:]...)
	p.lock.Release(c)
	for _, meta := range metas {
		c.Write(meta, 16)
	}
}

// drainAlien spills a full alien cache back to the home slabs
// (__drain_alien_cache). The alien array_cache line and the slab bookkeeping
// lines are written from the *freeing* core, which is what makes both types
// bounce between cores in the memcached case study. The pool lock is held
// only for the freelist splice; the per-slab bookkeeping writes are batched
// per distinct slab.
func (a *Allocator) drainAlien(c *sim.Ctx, p *pool, alien *arrayCache) {
	defer c.Leave(c.EnterPC(pcDrainAlienCache))
	objs := append([]uint64(nil), alien.objs...)
	alien.objs = alien.objs[:0]
	c.Read(alien.addr+16, 8)
	// The freelist splice happens under the pool lock; the per-slab
	// bookkeeping writes are issued after the release (they still generate
	// the slab-type coherence traffic Table 6.1 shows, without serializing
	// other cores behind this drain).
	p.lock.Acquire(c)
	c.Write(alien.addr, 8)
	var touched []*slabInfo
	var metas []uint64
	for _, obj := range objs {
		s := a.slabMap.Get(obj >> SlabShift)
		s.free = append(s.free, obj)
		s.inuse--
		if !slabSeen(touched, s) {
			touched = append(touched, s)
			metas = append(metas, s.metaAddr)
		}
		if len(s.free) == 1 {
			p.partial = append(p.partial, s)
		}
	}
	p.lock.Release(c)
	for _, meta := range metas {
		c.Write(meta, 16)
	}
}

// Alloc allocates one object of type t on the calling core and returns its
// address. It performs the simulated memory accesses of the SLAB fast path
// (and of refill when the per-CPU cache is empty).
func (a *Allocator) Alloc(c *sim.Ctx, t *Type) uint64 {
	if t.pool == nil {
		panic(fmt.Sprintf("mem: Alloc of non-pool type %q", t.Name))
	}
	defer c.Leave(c.EnterPC(pcKmemCacheAllocNode))
	p := t.pool
	ac := p.perCPU[c.Core.ID]
	c.Read(ac.addr, 8) // avail counter
	if len(ac.objs) == 0 {
		a.refill(c, p, ac)
	}
	obj := ac.objs[len(ac.objs)-1]
	ac.objs = ac.objs[:len(ac.objs)-1]
	c.Write(ac.addr, 8)
	p.alloc++
	p.live++
	if p.live > p.peak {
		p.peak = p.live
	}
	for _, h := range a.onAlloc {
		h(c, t, obj)
	}
	if ws := a.watch[t]; len(ws) > 0 {
		fn := ws[0]
		a.watch[t] = ws[1:]
		fn(c, obj)
	}
	return obj
}

// Free returns an object to its pool. Objects freed on a core other than the
// slab's home core go through the alien cache.
func (a *Allocator) Free(c *sim.Ctx, addr uint64) {
	s := a.slabMap.Get(addr >> SlabShift)
	if s == nil || s.t.pool == nil {
		panic(fmt.Sprintf("mem: Free of unknown address %#x", addr))
	}
	t := s.t
	p := t.pool
	defer c.Leave(c.EnterPC(pcKmemCacheFree))
	p.frees++
	if p.live == 0 {
		panic(fmt.Sprintf("mem: double free or free-without-alloc for type %q at %#x", t.Name, addr))
	}
	p.live--
	for _, h := range a.onFree {
		h(c, t, addr)
	}
	if s.home == c.Core.ID || s.home < 0 {
		ac := p.perCPU[c.Core.ID]
		c.Read(ac.addr, 8)
		ac.objs = append(ac.objs, addr)
		c.Write(ac.addr, 8)
		if len(ac.objs) > a.cfg.ArrayCacheCap {
			a.flushLocal(c, p, ac)
		}
		return
	}
	alien := p.alien[s.home]
	c.Read(alien.addr, 8)
	alien.objs = append(alien.objs, addr)
	c.Write(alien.addr, 8)
	if len(alien.objs) >= a.cfg.AlienCap {
		a.drainAlien(c, p, alien)
	}
}

// ObjRef identifies one object: its type and base address.
type ObjRef struct {
	Type *Type
	Base uint64
}

// Resolve maps a simulated address to its containing object. It returns the
// object's type, base address, and whether the address is typed at all.
// This is DProf's memory-type resolver (§5.2).
func (a *Allocator) Resolve(addr uint64) (t *Type, base uint64, ok bool) {
	s := a.slabMap.Get(addr >> SlabShift)
	if s == nil {
		return nil, 0, false
	}
	if addr < s.base {
		return nil, 0, false
	}
	idx := (addr - s.base) / s.objSize
	if idx >= uint64(s.nobj) {
		return nil, 0, false
	}
	return s.t, s.base + idx*s.objSize, true
}

// ObjectsOnLine returns every object overlapping the cache line that starts
// at lineAddr. DProf's false-sharing analysis coalesces these objects into a
// single path trace (§4.3).
func (a *Allocator) ObjectsOnLine(lineAddr, lineSize uint64) []ObjRef {
	var out []ObjRef
	for addr := lineAddr; addr < lineAddr+lineSize; {
		t, base, ok := a.Resolve(addr)
		if !ok {
			addr += 8
			continue
		}
		out = append(out, ObjRef{Type: t, Base: base})
		addr = base + t.objSize
	}
	return out
}

// PoolStats reports a pool's allocation counters.
type PoolStats struct {
	Type      *Type
	Live      uint64
	Peak      uint64
	LiveBytes uint64
	PeakBytes uint64
	Allocs    uint64
	Frees     uint64
	Slabs     int
}

// StatsFor returns counters for one type (zero value for non-pool types).
func (a *Allocator) StatsFor(t *Type) PoolStats {
	if t == nil || t.pool == nil {
		return PoolStats{Type: t}
	}
	p := t.pool
	return PoolStats{
		Type: t, Live: p.live, Peak: p.peak,
		LiveBytes: p.live * t.objSize, PeakBytes: p.peak * t.objSize,
		Allocs: p.alloc, Frees: p.frees, Slabs: p.slabs,
	}
}
