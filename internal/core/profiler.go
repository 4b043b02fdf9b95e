package core

import (
	"dprof/internal/cache"
	"dprof/internal/hw"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// Config tunes a profiling session.
type Config struct {
	// SampleRate is the IBS rate in samples per second per core. The paper
	// sweeps 1,000-18,000 (Figure 6-2).
	SampleRate float64
	// MaxAddrRecords caps retained address-set records (0 = unlimited).
	MaxAddrRecords int
	// WatchLen is the debug-register window in bytes (1..8).
	WatchLen uint32
}

// DefaultConfig returns a moderate-overhead profiling configuration.
func DefaultConfig() Config {
	return Config{SampleRate: 8000, MaxAddrRecords: 500_000, WatchLen: 4}
}

// Profiler is one DProf session attached to a machine and its allocator.
//
// The sample path is a streaming pipeline: the IBS interrupt handler appends
// each resolved sample to the interrupted core's delta buffer, and the
// buffers merge into the cumulative table in core-ID order — at every window
// boundary when windowing is on (StartWindows), and lazily via Sync before
// any read otherwise. The merge order is fixed, so a windowed run and a
// monolithic run of the same seed produce byte-identical views.
type Profiler struct {
	M     *sim.Machine
	Alloc *mem.Allocator

	IBS   *hw.IBS
	DRegs *hw.DebugRegs

	Samples   *SampleTable
	AddrSet   *AddressSet
	Collector *Collector

	cfg      Config
	sampling bool

	// types interns the value descriptors the analysis stack keys on;
	// descs/mems map between live allocator types (which the simulator-side
	// machinery — collector targeting, debug registers — still needs) and
	// their descriptors.
	types *TypeSet
	descs map[*mem.Type]*TypeDesc
	mems  map[*TypeDesc]*mem.Type

	// pending holds each core's samples since the last merge, in delivery
	// order (the per-core deltas of the windowed pipeline).
	pending [][]pendingSample
	pipe    *windowPipeline

	traceCache map[*TypeDesc][]*PathTrace
}

// CacheConfig returns the cache configuration views should use.
func (p *Profiler) CacheConfig() cache.Config { return p.M.Hier.Config() }

// Topology returns the topology views should use.
func (p *Profiler) Topology() cache.Topology { return p.M.Topology() }

// SocketOccupancy returns per-socket cache occupancy for the working set.
func (p *Profiler) SocketOccupancy() []cache.SocketUsage { return p.M.Hier.SocketOccupancy() }

// SampleTable returns the cumulative sample table. Callers reading it after
// driving the machine directly must Sync first (the ProfileSource view
// builders do).
func (p *Profiler) SampleTable() *SampleTable { return p.Samples }

// AddressSet returns the profiler's address set.
func (p *Profiler) AddressSet() *AddressSet { return p.AddrSet }

// Desc returns the interned value descriptor for a live allocator type (nil
// for nil) — the bridge from simulator identity to model identity.
func (p *Profiler) Desc(t *mem.Type) *TypeDesc {
	if t == nil {
		return nil
	}
	if d, ok := p.descs[t]; ok {
		return d
	}
	d := p.types.Intern(t.Name, t.Desc, t.Size, t.ObjSize())
	p.descs[t] = d
	p.mems[d] = t
	return d
}

// memOf maps a descriptor back to its live allocator type (nil when the
// descriptor did not come from this profiler).
func (p *Profiler) memOf(d *TypeDesc) *mem.Type {
	if d == nil {
		return nil
	}
	return p.mems[d]
}

// TypeByName resolves a type name to its descriptor, interning it from the
// allocator when the profile has not touched the type yet.
func (p *Profiler) TypeByName(name string) *TypeDesc {
	if d := p.types.ByName(name); d != nil {
		return d
	}
	if p.Alloc != nil {
		if t := p.Alloc.TypeByName(name); t != nil {
			return p.Desc(t)
		}
	}
	return nil
}

// HistoriesFor returns the collected histories for a type descriptor.
func (p *Profiler) HistoriesFor(d *TypeDesc) []*History {
	return p.Collector.HistoriesFor(d)
}

// pendingSample is one IBS sample buffered in a core's delta: resolved to
// (type, offset) at delivery time — resolution must not wait for the merge,
// the object could be freed by then — with the event copied out of the
// core's scratch space.
type pendingSample struct {
	t   *TypeDesc
	off uint32
	ev  sim.AccessEvent
}

// Attach wires a profiler to the machine: it creates the IBS and
// debug-register units, instruments the allocator for the address set and
// history collection, and seeds the address set with static objects.
// Sampling and history collection start explicitly.
func Attach(m *sim.Machine, alloc *mem.Allocator, cfg Config) *Profiler {
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = DefaultConfig().SampleRate
	}
	if cfg.WatchLen == 0 || cfg.WatchLen > hw.MaxWatchBytes {
		cfg.WatchLen = 4
	}
	p := &Profiler{
		M:          m,
		Alloc:      alloc,
		IBS:        hw.NewIBS(m),
		DRegs:      hw.NewDebugRegs(m),
		Samples:    NewSampleTable(),
		AddrSet:    NewAddressSet(),
		cfg:        cfg,
		types:      NewTypeSet(),
		descs:      make(map[*mem.Type]*TypeDesc),
		mems:       make(map[*TypeDesc]*mem.Type),
		traceCache: make(map[*TypeDesc][]*PathTrace),
	}
	p.AddrSet.MaxObjects = cfg.MaxAddrRecords
	p.Collector = newCollector(p)
	p.Collector.WatchLen = cfg.WatchLen
	p.pending = make([][]pendingSample, m.NumCores())

	for _, s := range alloc.Statics() {
		p.AddrSet.AddStatic(p.Desc(s.Type), s.Base)
	}
	for _, s := range alloc.InternalObjects() {
		p.AddrSet.AddStatic(p.Desc(s.Type), s.Base)
	}
	for _, s := range alloc.LiveObjects() {
		p.AddrSet.AddStatic(p.Desc(s.Type), s.Base)
	}
	alloc.OnAlloc(func(c *sim.Ctx, t *mem.Type, addr uint64) {
		p.AddrSet.RecordAlloc(c.Now(), int32(c.Core.ID), p.Desc(t), addr)
	})
	alloc.OnFree(func(c *sim.Ctx, t *mem.Type, addr uint64) {
		p.AddrSet.RecordFree(c.Now(), p.Desc(t), addr)
	})
	alloc.OnFree(func(c *sim.Ctx, t *mem.Type, addr uint64) { p.Collector.onFree(c, addr) })
	// Registered after the hw units the constructor created, so a restore
	// rewinds the raw sampling state before the analysis pipeline above it.
	m.AddSnapshotter(p)
	return p
}

// Config returns the profiler's configuration.
func (p *Profiler) Config() Config { return p.cfg }

// StartSampling turns on IBS access sampling. Each delivered sample costs
// the interrupted core ~2,000 cycles — the overhead Figure 6-2 measures.
func (p *Profiler) StartSampling() {
	if p.sampling {
		return
	}
	p.sampling = true
	p.IBS.Start(p.cfg.SampleRate, func(c *sim.Ctx, s hw.Sample) {
		t, base, ok := p.Alloc.Resolve(s.Ev.Addr)
		var off uint32
		var d *TypeDesc
		if ok {
			off = uint32(s.Ev.Addr - base)
			d = p.Desc(t)
		}
		p.pending[s.Ev.Core] = append(p.pending[s.Ev.Core], pendingSample{t: d, off: off, ev: s.Ev})
	})
}

// Sync merges the per-core sample deltas into the cumulative table (and the
// open window's delta, when windowing is on), in core-ID order. Every view
// builder calls it, so reads through the Profiler API always see a fully
// merged table; code reading the Samples field directly after driving the
// machine itself must call Sync first.
func (p *Profiler) Sync() {
	for coreID := range p.pending {
		buf := p.pending[coreID]
		for i := range buf {
			s := &buf[i]
			p.Samples.Add(s.t, s.off, &s.ev)
			if p.pipe != nil && p.pipe.delta != nil {
				p.pipe.delta.Add(s.t, s.off, &s.ev)
			}
		}
		p.pending[coreID] = buf[:0]
	}
}

// StopSampling turns IBS off.
func (p *Profiler) StopSampling() {
	p.sampling = false
	p.IBS.Stop()
}

// CollectHistories queues `sets` single-offset history sets for each type
// and starts the collector (if not already running). Histories accumulate
// while the workload runs.
func (p *Profiler) CollectHistories(sets int, types ...*mem.Type) {
	for _, t := range types {
		p.Collector.AddSingleTargets(t, sets)
	}
	if !p.Collector.Running() {
		p.Collector.Start()
	}
}

// CollectPairwise queues pairwise-sampling sets over the given offsets of a
// type (§5.3). If offsets is nil, the most-sampled offsets are used, as §6.4
// describes ("DProf analyzes the access samples to find the most used
// members").
func (p *Profiler) CollectPairwise(t *mem.Type, offsets []uint32, sets, maxOffsets int) {
	if offsets == nil {
		p.Sync()
		offsets = p.Samples.HotOffsets(p.Desc(t), p.cfg.WatchLen, maxOffsets)
	}
	if len(offsets) < 2 {
		// Not enough sampled offsets to order pairwise; fall back to the
		// first two watchable offsets.
		offsets = []uint32{0, p.cfg.WatchLen}
	}
	p.Collector.AddPairTargets(t, offsets, sets)
	if !p.Collector.Running() {
		p.Collector.Start()
	}
}

// PathTraces builds (and caches) the path traces for a type from the
// collected histories and access samples.
func (p *Profiler) PathTraces(t *TypeDesc) []*PathTrace {
	if tr, ok := p.traceCache[t]; ok {
		return tr
	}
	p.Sync()
	tr := BuildPathTraces(t, p.Collector.HistoriesFor(t), p.Samples)
	p.traceCache[t] = tr
	return tr
}

// InvalidateTraceCache drops memoized path traces (after collecting more
// histories).
func (p *Profiler) InvalidateTraceCache() {
	p.traceCache = make(map[*TypeDesc][]*PathTrace)
}

// AllTraces builds traces for every type with histories.
func (p *Profiler) AllTraces() map[*TypeDesc][]*PathTrace {
	out := make(map[*TypeDesc][]*PathTrace)
	for _, h := range p.Collector.AllHistories() {
		if _, ok := out[h.Type]; !ok {
			out[h.Type] = p.PathTraces(h.Type)
		}
	}
	return out
}

// DataProfile builds the data profile view (§4.1).
func (p *Profiler) DataProfile() *DataProfile { return DataProfileOf(p) }

// WorkingSet builds the working set view (§4.2) using the machine's L1
// geometry, plus per-socket occupancy on multi-socket machines.
func (p *Profiler) WorkingSet() *WorkingSetView { return WorkingSetOf(p) }

// MissClassification builds the miss classification view (§4.3).
func (p *Profiler) MissClassification() []MissClassRow { return MissClassificationOf(p) }

// DataFlow builds the data flow view for one type (§4.4).
func (p *Profiler) DataFlow(t *TypeDesc) *FlowGraph { return DataFlowOf(p, t) }
