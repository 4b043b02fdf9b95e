// Package core implements DProf, the paper's contribution: a data-oriented
// profiler that attributes cache misses to data types rather than code
// locations.
//
// DProf consumes three raw inputs (§5):
//
//   - access samples, delivered by the IBS sampling hardware: {instruction,
//     data address, CPU, cache level, latency}, resolved to {type, offset}
//     through the allocator (sample.go);
//   - the address set: the address, type, and lifetime of every object
//     allocated while profiling (addrset.go);
//   - object access histories: complete traces of accesses to individual
//     objects, gathered a few bytes at a time with debug registers
//     (history.go, collector.go).
//
// From these it generates path traces (pathtrace.go) and the four views the
// paper describes (§3): the data profile, miss classification, working set,
// and data flow views (views.go, dataflow.go).
package core

import (
	"sort"
	"unsafe"

	"dprof/internal/cache"
	"dprof/internal/sim"
	"dprof/internal/sym"
)

// SampleKey aggregates access samples by (type, offset, instruction), the
// grouping §5.4 prescribes. Type is nil for unresolved addresses.
type SampleKey struct {
	Type   *TypeDesc
	Offset uint32
	PC     sym.PC
}

// SampleStats accumulates what the IBS hardware reports for one key.
type SampleStats struct {
	Count          uint64
	Writes         uint64
	Misses         uint64 // samples that missed the local L1
	Levels         [cache.NumLevels]uint64
	LatencySum     uint64
	MissLatencySum uint64
	CPUMask        uint64 // cores this access was sampled on
	WriteCPUs      uint64 // cores that wrote through this key
}

// AvgLatency returns the mean sampled access latency in cycles.
func (s *SampleStats) AvgLatency() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Count)
}

// SampleTable is the access-sample store for one profiling session.
type SampleTable struct {
	byKey map[SampleKey]*SampleStats

	Total       uint64
	TotalMisses uint64
	Unresolved  uint64 // samples whose address had no type
}

// NewSampleTable returns an empty table.
func NewSampleTable() *SampleTable {
	return &SampleTable{byKey: make(map[SampleKey]*SampleStats)}
}

// denseBytes is the size of the table's map and its stats blocks, one per
// key.
func (st *SampleTable) denseBytes() uint64 {
	return sim.MapBytes(st.byKey) + uint64(len(st.byKey))*uint64(unsafe.Sizeof(SampleStats{}))
}

// liveBytes is the table's resident size.
func (st *SampleTable) liveBytes() uint64 { return uint64(unsafe.Sizeof(*st)) + st.denseBytes() }

// Add records one access sample resolved to (t, offset); t may be nil.
func (st *SampleTable) Add(t *TypeDesc, offset uint32, ev *sim.AccessEvent) {
	st.Total++
	if t == nil {
		st.Unresolved++
	}
	miss := ev.Level != cache.L1Hit
	if miss {
		st.TotalMisses++
	}
	k := SampleKey{Type: t, Offset: offset, PC: ev.PC}
	s := st.byKey[k]
	if s == nil {
		s = &SampleStats{}
		st.byKey[k] = s
	}
	s.Count++
	if ev.Write {
		s.Writes++
		s.WriteCPUs |= 1 << uint(ev.Core)
	}
	if miss {
		s.Misses++
		s.MissLatencySum += uint64(ev.Latency)
	}
	s.Levels[ev.Level]++
	s.LatencySum += uint64(ev.Latency)
	s.CPUMask |= 1 << uint(ev.Core)
}

// Get returns the stats for a key, or nil.
func (st *SampleTable) Get(k SampleKey) *SampleStats { return st.byKey[k] }

// Merge folds another table's aggregates into st. Every per-key statistic
// is a sum or a bitwise union, so merging is commutative and associative
// over table contents — the property that makes per-window sample deltas
// recombine into exactly the monolithic table no matter how a run was
// windowed.
func (st *SampleTable) Merge(d *SampleTable) {
	for k, s := range d.byKey {
		dst := st.byKey[k]
		if dst == nil {
			dst = &SampleStats{}
			st.byKey[k] = dst
		}
		dst.Count += s.Count
		dst.Writes += s.Writes
		dst.Misses += s.Misses
		for i := range s.Levels {
			dst.Levels[i] += s.Levels[i]
		}
		dst.LatencySum += s.LatencySum
		dst.MissLatencySum += s.MissLatencySum
		dst.CPUMask |= s.CPUMask
		dst.WriteCPUs |= s.WriteCPUs
	}
	st.Total += d.Total
	st.TotalMisses += d.TotalMisses
	st.Unresolved += d.Unresolved
}

// Keys returns all keys, most-sampled first.
func (st *SampleTable) Keys() []SampleKey {
	out := make([]SampleKey, 0, len(st.byKey))
	for k := range st.byKey {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := st.byKey[out[i]], st.byKey[out[j]]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if out[i].Offset != out[j].Offset {
			return out[i].Offset < out[j].Offset
		}
		// Tie-break by name, not numeric PC: PC values depend on interning
		// order, which is not stable when experiments run concurrently.
		return sym.Name(out[i].PC) < sym.Name(out[j].PC)
	})
	return out
}

// TypeAggregate is per-type roll-up of the sample table.
type TypeAggregate struct {
	Type           *TypeDesc
	Samples        uint64
	Misses         uint64
	Levels         [cache.NumLevels]uint64
	LatencySum     uint64
	MissLatencySum uint64
	CPUMask        uint64
	WriteCPUs      uint64
}

// AvgMissLatency is the mean latency of this type's sampled L1 misses.
func (a *TypeAggregate) AvgMissLatency() float64 {
	if a.Misses == 0 {
		return 0
	}
	return float64(a.MissLatencySum) / float64(a.Misses)
}

// MissShare returns this type's fraction of all sampled L1 misses.
func (a *TypeAggregate) MissShare(table *SampleTable) float64 {
	if table.TotalMisses == 0 {
		return 0
	}
	return float64(a.Misses) / float64(table.TotalMisses)
}

// ByType rolls the table up per type (nil key collects unresolved samples).
func (st *SampleTable) ByType() map[*TypeDesc]*TypeAggregate {
	out := make(map[*TypeDesc]*TypeAggregate)
	for k, s := range st.byKey {
		agg := out[k.Type]
		if agg == nil {
			agg = &TypeAggregate{Type: k.Type}
			out[k.Type] = agg
		}
		agg.Samples += s.Count
		agg.Misses += s.Misses
		for i := range s.Levels {
			agg.Levels[i] += s.Levels[i]
		}
		agg.LatencySum += s.LatencySum
		agg.MissLatencySum += s.MissLatencySum
		agg.CPUMask |= s.CPUMask
		agg.WriteCPUs |= s.WriteCPUs
	}
	return out
}

// HotOffsets returns the most-sampled offsets of a type (used to choose the
// members pairwise profiling covers, §6.4), aligned down to `align` bytes.
func (st *SampleTable) HotOffsets(t *TypeDesc, align uint32, max int) []uint32 {
	if align == 0 {
		align = 1
	}
	counts := make(map[uint32]uint64)
	for k, s := range st.byKey {
		if k.Type == t {
			counts[k.Offset-(k.Offset%align)] += s.Count
		}
	}
	offs := make([]uint32, 0, len(counts))
	for o := range counts {
		offs = append(offs, o)
	}
	sort.Slice(offs, func(i, j int) bool {
		if counts[offs[i]] != counts[offs[j]] {
			return counts[offs[i]] > counts[offs[j]]
		}
		return offs[i] < offs[j]
	})
	if max > 0 && len(offs) > max {
		offs = offs[:max]
	}
	sorted := append([]uint32(nil), offs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// popcount64 counts set bits (for CPU masks).
func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
