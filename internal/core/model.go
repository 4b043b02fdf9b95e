package core

import (
	"sort"

	"dprof/internal/cache"
)

// The source-neutral profile model. The analysis stack — sample table, views,
// diff, windows, export — historically keyed everything on live *mem.Type
// allocator pointers, which welded it to the in-process simulator. The model
// layer replaces those keys with stable value descriptors (TypeDesc) and an
// interface (ProfileSource) over the raw profile inputs, so the same views
// run over a simulator session or samples ingested from a real machine's
// perf.data.

// TypeDesc is the stable value descriptor of one data type: what the views
// need to render and serialize, with no reference back to the allocator that
// (maybe) produced it. Descriptors are interned per TypeSet, so pointer
// equality works as a map key within one profile.
type TypeDesc struct {
	Name string
	Desc string
	// Size is the declared type size in bytes; ObjSize is the allocated
	// footprint per object (slab-rounded), used for address-range math.
	Size    uint64
	ObjSize uint64
}

// TypeSet interns TypeDescs by name, giving each profile one canonical
// descriptor pointer per type name — the property the sample table, address
// set, and history stores rely on for map keys.
type TypeSet struct {
	byName map[string]*TypeDesc
	order  []*TypeDesc
}

// NewTypeSet returns an empty interner.
func NewTypeSet() *TypeSet {
	return &TypeSet{byName: make(map[string]*TypeDesc)}
}

// Intern returns the canonical descriptor for name, creating it on first
// use. Later calls with the same name return the first descriptor unchanged
// (first writer wins), so re-ingestion cannot flap metadata.
func (ts *TypeSet) Intern(name, desc string, size, objSize uint64) *TypeDesc {
	if d, ok := ts.byName[name]; ok {
		return d
	}
	if objSize == 0 {
		objSize = size
	}
	d := &TypeDesc{Name: name, Desc: desc, Size: size, ObjSize: objSize}
	ts.byName[name] = d
	ts.order = append(ts.order, d)
	return d
}

// ByName returns the interned descriptor for name, or nil.
func (ts *TypeSet) ByName(name string) *TypeDesc { return ts.byName[name] }

// Names returns the interned type names, sorted.
func (ts *TypeSet) Names() []string {
	names := make([]string, 0, len(ts.byName))
	for n := range ts.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every interned descriptor in interning order.
func (ts *TypeSet) All() []*TypeDesc { return ts.order }

// HistorySource supplies object access histories per type — the third raw
// input of §5. The simulator's Collector implements it (debug-register
// traces); ingested profiles synthesize histories from time-ordered samples.
type HistorySource interface {
	HistoriesFor(t *TypeDesc) []*History
}

// HistMap is the trivial HistorySource over a plain history map.
type HistMap map[*TypeDesc][]*History

// HistoriesFor returns the mapped histories for a type.
func (m HistMap) HistoriesFor(t *TypeDesc) []*History { return m[t] }

// ProfileSource is the neutral interface between the raw profile inputs and
// the analysis stack: whoever can supply access samples, an address set,
// histories, and the machine-shaped view parameters gets all five views, the
// window pipeline, the exporter, and the diff for free.
//
// The simulator implementation is *Profiler (wrapping Session/Collector
// state); *StaticProfile wraps ingested data.
type ProfileSource interface {
	HistorySource

	// Sync flushes any buffered samples into the cumulative table. View
	// builders call it before reading; static sources no-op.
	Sync()
	// SampleTable returns the cumulative access-sample table.
	SampleTable() *SampleTable
	// AddressSet returns the object address set.
	AddressSet() *AddressSet
	// TypeByName resolves a type name to its interned descriptor (nil when
	// the profile never saw the type).
	TypeByName(name string) *TypeDesc
	// PathTraces builds (or returns cached) path traces for one type.
	PathTraces(t *TypeDesc) []*PathTrace
	// AllTraces returns path traces for every type with histories.
	AllTraces() map[*TypeDesc][]*PathTrace
	// CacheConfig is the cache configuration views scale against.
	CacheConfig() cache.Config
	// Topology is the socket layout of the profiled machine.
	Topology() cache.Topology
	// SocketOccupancy reports per-socket resident lines on multi-socket
	// machines (nil otherwise, or when the source cannot observe it).
	SocketOccupancy() []cache.SocketUsage
}

// DataProfileOf builds the data profile view (§4.1) from any source.
func DataProfileOf(src ProfileSource) *DataProfile {
	src.Sync()
	return BuildDataProfile(src.SampleTable(), src.AddressSet(), src)
}

// WorkingSetOf builds the working set view (§4.2) from any source.
func WorkingSetOf(src ProfileSource) *WorkingSetView {
	v := BuildWorkingSet(src.AddressSet(), src.AllTraces(), GeometryFromCache(src.CacheConfig()), DefaultReplayObjects)
	if src.Topology().Sockets > 1 {
		v.PerSocket = src.SocketOccupancy()
	}
	return v
}

// MissClassificationOf builds the miss classification view (§4.3) from any
// source.
func MissClassificationOf(src ProfileSource) []MissClassRow {
	src.Sync()
	return BuildMissClassification(src.SampleTable(), src.AllTraces(), WorkingSetOf(src), src.CacheConfig().LineSize)
}

// DataFlowOf builds the data flow view (§4.4) for one type from any source.
func DataFlowOf(src ProfileSource, t *TypeDesc) *FlowGraph {
	return BuildDataFlow(t, src.PathTraces(t))
}

// StaticProfile is a ProfileSource over already-materialized profile data —
// the model's implementation for profiles that did not come from the
// in-process simulator (perf.data ingestion, future importers). It holds the
// same three raw inputs the simulator produces and serves them verbatim.
type StaticProfile struct {
	Types   *TypeSet
	Samples *SampleTable
	Addrs   *AddressSet
	Hists   map[*TypeDesc][]*History

	CacheCfg  cache.Config
	Topo      cache.Topology
	Occupancy []cache.SocketUsage

	traceCache map[*TypeDesc][]*PathTrace
}

// NewStaticProfile wraps materialized profile inputs as a ProfileSource.
func NewStaticProfile(types *TypeSet, samples *SampleTable, addrs *AddressSet, hists map[*TypeDesc][]*History, cfg cache.Config, topo cache.Topology) *StaticProfile {
	if samples == nil {
		samples = NewSampleTable()
	}
	if addrs == nil {
		addrs = NewAddressSet()
	}
	return &StaticProfile{
		Types:      types,
		Samples:    samples,
		Addrs:      addrs,
		Hists:      hists,
		CacheCfg:   cfg,
		Topo:       topo,
		traceCache: make(map[*TypeDesc][]*PathTrace),
	}
}

// Sync is a no-op: a static profile has no pending sample buffers.
func (sp *StaticProfile) Sync() {}

// SampleTable returns the profile's sample table.
func (sp *StaticProfile) SampleTable() *SampleTable { return sp.Samples }

// AddressSet returns the profile's address set.
func (sp *StaticProfile) AddressSet() *AddressSet { return sp.Addrs }

// TypeByName resolves a type name against the profile's interner.
func (sp *StaticProfile) TypeByName(name string) *TypeDesc {
	if sp.Types == nil {
		return nil
	}
	return sp.Types.ByName(name)
}

// HistoriesFor returns the (possibly synthesized) histories for a type.
func (sp *StaticProfile) HistoriesFor(t *TypeDesc) []*History { return sp.Hists[t] }

// PathTraces builds (and caches) path traces for one type.
func (sp *StaticProfile) PathTraces(t *TypeDesc) []*PathTrace {
	if tr, ok := sp.traceCache[t]; ok {
		return tr
	}
	tr := BuildPathTraces(t, sp.Hists[t], sp.Samples)
	sp.traceCache[t] = tr
	return tr
}

// AllTraces builds traces for every type with histories.
func (sp *StaticProfile) AllTraces() map[*TypeDesc][]*PathTrace {
	out := make(map[*TypeDesc][]*PathTrace)
	for t := range sp.Hists {
		out[t] = sp.PathTraces(t)
	}
	return out
}

// CacheConfig returns the cache configuration the views scale against.
func (sp *StaticProfile) CacheConfig() cache.Config { return sp.CacheCfg }

// Topology returns the profiled machine's socket layout.
func (sp *StaticProfile) Topology() cache.Topology { return sp.Topo }

// SocketOccupancy returns per-socket occupancy when the source recorded it.
func (sp *StaticProfile) SocketOccupancy() []cache.SocketUsage { return sp.Occupancy }
