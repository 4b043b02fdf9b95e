package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dprof/internal/cache"
)

// DataProfileRow is one line of the data profile view: a data type, its
// working-set size, its share of all L1 misses, and whether its objects
// bounce between cores (Tables 6.1, 6.4, 6.5). The locality percentages
// split this type's misses by where they were satisfied; the cross-chip and
// remote-DRAM shares are always zero on the single-socket default.
type DataProfileRow struct {
	Type            *TypeDesc
	WorkingSetBytes uint64
	MissPct         float64 // % of all sampled L1 misses
	Bounce          bool
	Samples         uint64
	MissSamples     uint64
	AvgMissLatency  float64

	// Locality split of this type's miss samples (percent of MissSamples):
	// served by an on-chip foreign cache, by a cache on another chip, or by
	// a remote socket's memory node. The remainder hit local L2/L3/DRAM.
	OnChipPct     float64
	CrossChipPct  float64
	RemoteDRAMPct float64
}

// DataProfile is the highest-level view: types ranked by cache misses.
type DataProfile struct {
	Rows             []DataProfileRow
	TotalSamples     uint64
	TotalMissSamples uint64
	UnresolvedPct    float64 // % of miss samples with no resolvable type
}

// BuildDataProfile combines the sample table, address set, and (optionally)
// collected histories into the data profile view (§4.1). hists may be nil
// when no history source exists (bounce then falls back to sample evidence).
func BuildDataProfile(samples *SampleTable, addrs *AddressSet, hists HistorySource) *DataProfile {
	dp := &DataProfile{
		TotalSamples:     samples.Total,
		TotalMissSamples: samples.TotalMisses,
	}
	var unresolvedMisses uint64
	byType := samples.ByType()
	for t, agg := range byType {
		if t == nil {
			unresolvedMisses = agg.Misses
			continue
		}
		row := DataProfileRow{
			Type:           t,
			MissPct:        100 * agg.MissShare(samples),
			Samples:        agg.Samples,
			MissSamples:    agg.Misses,
			AvgMissLatency: agg.AvgMissLatency(),
		}
		if agg.Misses > 0 {
			row.OnChipPct = 100 * float64(agg.Levels[cache.ForeignHit]) / float64(agg.Misses)
			row.CrossChipPct = 100 * float64(agg.Levels[cache.ForeignRemote]) / float64(agg.Misses)
			row.RemoteDRAMPct = 100 * float64(agg.Levels[cache.DRAMRemote]) / float64(agg.Misses)
		}
		row.WorkingSetBytes = addrs.UsageFor(t).PeakBytes
		row.Bounce = bounceFor(t, agg, hists)
		dp.Rows = append(dp.Rows, row)
	}
	if samples.TotalMisses > 0 {
		dp.UnresolvedPct = 100 * float64(unresolvedMisses) / float64(samples.TotalMisses)
	}
	sort.Slice(dp.Rows, func(i, j int) bool {
		if dp.Rows[i].MissPct != dp.Rows[j].MissPct {
			return dp.Rows[i].MissPct > dp.Rows[j].MissPct
		}
		return dp.Rows[i].Type.Name < dp.Rows[j].Type.Name
	})
	return dp
}

// bounceFor decides the "bounce" column: object access histories are
// authoritative when available; otherwise samples showing foreign-cache
// transfers or multi-CPU writers imply bouncing.
func bounceFor(t *TypeDesc, agg *TypeAggregate, hists HistorySource) bool {
	if hists != nil {
		if hs := hists.HistoriesFor(t); len(hs) > 0 {
			for _, h := range hs {
				if h.CrossCPU() {
					return true
				}
			}
			return false
		}
	}
	if agg.Samples == 0 {
		return false
	}
	// Foreign-cache transfers (on-chip or cross-chip) are the signature of
	// objects moving between cores. Multi-core writes alone are not: sixteen
	// per-core sockets written by sixteen different cores never share a line.
	foreignFrac := float64(agg.Levels[cache.ForeignHit]+agg.Levels[cache.ForeignRemote]) / float64(agg.Samples)
	return foreignFrac > 0.002
}

// AssocSetStat describes one L1 associativity set in the working-set view.
type AssocSetStat struct {
	Index         int
	DistinctLines int
	ByType        map[string]int // distinct lines per type name
}

// WorkingSetRow is one type's footprint in the working-set view.
type WorkingSetRow struct {
	Type      *TypeDesc
	PeakBytes uint64
	AvgBytes  float64
	PeakCount uint64
	AvgCount  float64

	// TopPaths summarizes the execution paths objects of this type take
	// (§4.2: knowing the cache is full of skbuffs is not enough — the
	// programmer needs to know *which of the many potential sources* is
	// generating them). Each entry is "freq%: fn -> fn -> ...".
	TopPaths []string
}

// WorkingSetView reports what data is in the cache: per-type footprints and
// the associativity-set histogram DProf builds with its replay simulation
// (§4.2). On multi-socket machines PerSocket reports each chip's actual
// cache occupancy.
type WorkingSetView struct {
	Rows []WorkingSetRow

	Geometry    Geometry
	LinesPerSet []int // distinct cache lines that ever mapped to each L1 set
	MeanLines   float64
	Ways        int
	Overloaded  []AssocSetStat // sets holding >2x the mean (conflict suspects)

	// PerSocket is each socket's resident-line count (private caches plus
	// its L3 bank); empty unless the profiler's machine is multi-socket.
	PerSocket []cache.SocketUsage

	SampledObjects int
}

// Geometry captures the L1 cache parameters the working-set replay needs.
// Derive it with GeometryFromCache so it can never drift from the simulated
// machine's actual configuration.
type Geometry struct {
	LineSize uint64
	Sets     int
	Ways     int
}

// GeometryFromCache derives the replay geometry from a cache configuration.
func GeometryFromCache(cfg cache.Config) Geometry {
	return Geometry{
		LineSize: cfg.LineSize,
		Sets:     int(cfg.L1Size / cfg.LineSize / uint64(cfg.L1Ways)),
		Ways:     cfg.L1Ways,
	}
}

// BuildWorkingSet replays the address set through the cache geometry:
// every sampled object contributes the cache lines its accessed offsets
// (from path traces, or its whole extent without them) map to (§4.2).
func BuildWorkingSet(addrs *AddressSet, traces map[*TypeDesc][]*PathTrace, geo Geometry, maxObjects int) *WorkingSetView {
	v := &WorkingSetView{
		Geometry:    geo,
		LinesPerSet: make([]int, geo.Sets),
		Ways:        geo.Ways,
	}
	for _, u := range addrs.Usage() {
		v.Rows = append(v.Rows, WorkingSetRow{
			Type:      u.Type,
			PeakBytes: u.PeakBytes,
			AvgBytes:  u.AvgBytes,
			PeakCount: u.PeakCount,
			AvgCount:  u.AvgCount,
			TopPaths:  summarizePaths(traces[u.Type], 3),
		})
	}

	// Each type's accessed lines, reduced once to the sorted distinct
	// line-aligned offsets its path-trace steps cover (its whole extent
	// without traces). Distinct offsets land on distinct lines of any object.
	type wsType struct {
		offs []uint64
		id   int32
	}
	descs := addrs.Types()
	byIndex := make([]*wsType, len(descs))
	var types typeIDs
	typeOf := func(ti uint32) *wsType {
		if wt := byIndex[ti]; wt != nil {
			return wt
		}
		t := descs[ti]
		wt := &wsType{id: types.id(t.Name)}
		addRange := func(lo, hi uint64) {
			for off := lo &^ (geo.LineSize - 1); off < hi; off += geo.LineSize {
				wt.offs = append(wt.offs, off)
			}
		}
		traced := false
		for _, tr := range traces[t] {
			for _, st := range tr.Steps {
				if !st.Synthetic {
					traced = true
					addRange(uint64(st.OffLo), uint64(st.OffHi))
				}
			}
		}
		if !traced {
			addRange(0, t.ObjSize)
		}
		slices.Sort(wt.offs)
		wt.offs = slices.Compact(wt.offs)
		byIndex[ti] = wt
		return wt
	}

	// Every distinct line any sampled object touches, named by the first
	// object (in record order) to claim it: line -> type id+1.
	lines := newLineTable()
	nobj := addrs.Len()
	step := 1
	if maxObjects > 0 && nobj > maxObjects {
		step = (nobj + maxObjects - 1) / maxObjects
	}
	for i := 0; i < nobj; i += step {
		rec := addrs.At(i)
		v.SampledObjects++
		wt := typeOf(rec.Type)
		base, page := int32(0), ^uint64(0)
		for _, off := range wt.offs {
			line := (rec.Addr + off) / geo.LineSize
			if line>>6 != page {
				page = line >> 6
				base, _ = lines.page(page, true)
			}
			if cell := &lines.cells[base+int32(line&63)]; *cell == 0 {
				*cell = wt.id + 1
				v.LinesPerSet[int(line)&(geo.Sets-1)]++
			}
		}
	}
	var total int
	for _, n := range v.LinesPerSet {
		total += n
	}
	v.MeanLines = float64(total) / float64(geo.Sets)

	threshold := 2 * v.MeanLines
	for i, n := range v.LinesPerSet {
		if float64(n) > threshold && n > geo.Ways {
			v.Overloaded = append(v.Overloaded, AssocSetStat{Index: i, DistinctLines: n, ByType: make(map[string]int)})
		}
	}
	if len(v.Overloaded) > 0 {
		// One pass over the claimed lines attributes the overloaded sets.
		bySet := make([]*AssocSetStat, geo.Sets)
		for i := range v.Overloaded {
			bySet[v.Overloaded[i].Index] = &v.Overloaded[i]
		}
		for pi, page := range lines.pages {
			for j, id := range lines.cells[pi*64 : pi*64+64] {
				if id == 0 {
					continue
				}
				if st := bySet[int(page<<6|uint64(j))&(geo.Sets-1)]; st != nil {
					st.ByType[types.names[id-1]]++
				}
			}
		}
	}
	sort.Slice(v.Overloaded, func(i, j int) bool {
		if v.Overloaded[i].DistinctLines != v.Overloaded[j].DistinctLines {
			return v.Overloaded[i].DistinctLines > v.Overloaded[j].DistinctLines
		}
		return v.Overloaded[i].Index < v.Overloaded[j].Index
	})
	return v
}

// summarizePaths renders a type's most frequent execution paths as short
// "freq%: fn -> fn" strings for the working-set view.
func summarizePaths(traces []*PathTrace, max int) []string {
	var out []string
	for i, tr := range traces {
		if i == max {
			break
		}
		var fns []string
		var last string
		for _, st := range tr.Steps {
			name := symName(st.PC)
			if name == last {
				continue
			}
			last = name
			fns = append(fns, name)
			if len(fns) == 6 {
				fns = append(fns, "...")
				break
			}
		}
		out = append(out, fmt.Sprintf("%.0f%%: %s", 100*tr.Frequency, strings.Join(fns, " -> ")))
	}
	return out
}

// conflictShare returns the fraction of a type's cache lines that map into
// overloaded associativity sets.
func (v *WorkingSetView) conflictShare(t *TypeDesc) float64 {
	if len(v.Overloaded) == 0 {
		return 0
	}
	over := 0
	for _, st := range v.Overloaded {
		over += st.ByType[t.Name]
	}
	var total float64
	for _, row := range v.Rows {
		if row.Type == t {
			total = float64(row.PeakBytes) / float64(v.Geometry.LineSize)
			break
		}
	}
	if total == 0 {
		return 0
	}
	share := float64(over) / total
	if share > 1 {
		share = 1
	}
	return share
}

// spreadEvenly reports whether the overload is broad (capacity) rather than
// concentrated in a few sets (conflict), per §4.3's heuristic.
func (v *WorkingSetView) spreadEvenly() bool {
	return len(v.Overloaded) > len(v.LinesPerSet)/8
}

// MissClassRow classifies one type's misses (§4.3).
type MissClassRow struct {
	Type        *TypeDesc
	MissSamples uint64

	// Percentages of this type's misses.
	InvalidationPct float64 // all sharing-induced misses
	TrueSharingPct  float64
	FalseSharingPct float64
	ConflictPct     float64
	CapacityPct     float64
	// Compulsory misses are assumed absent (§4.3).

	// Locality split of the same misses by where they were satisfied:
	// within the core's own chip (local L2/L3/DRAM), an on-chip foreign
	// cache, a cache on another chip, or a remote memory node. Cross-chip
	// and remote-DRAM are always zero on the single-socket default.
	LocalPct      float64
	OnChipPct     float64
	CrossChipPct  float64
	RemoteDRAMPct float64
}

// BuildMissClassification classifies each type's misses into invalidation
// (true/false sharing), conflict, and capacity misses.
//
// Sharing misses are identified per the paper: a miss whose path trace
// contains an earlier write to the same cache line from a different CPU is
// an invalidation miss. It is false sharing when the type's layout packs
// multiple objects into one line and the prior cross-CPU write touched a
// different object (detected by the absence of a same-object cross-CPU
// write). Non-invalidation misses split between conflict and capacity using
// the working-set histogram.
func BuildMissClassification(samples *SampleTable, traces map[*TypeDesc][]*PathTrace, ws *WorkingSetView, lineSize uint64) []MissClassRow {
	var rows []MissClassRow
	for t, agg := range samples.ByType() {
		if t == nil || agg.Misses == 0 {
			continue
		}
		row := MissClassRow{Type: t, MissSamples: agg.Misses}
		misses := float64(agg.Misses)
		row.OnChipPct = 100 * float64(agg.Levels[cache.ForeignHit]) / misses
		row.CrossChipPct = 100 * float64(agg.Levels[cache.ForeignRemote]) / misses
		row.RemoteDRAMPct = 100 * float64(agg.Levels[cache.DRAMRemote]) / misses
		row.LocalPct = 100 - row.OnChipPct - row.CrossChipPct - row.RemoteDRAMPct

		invalFrac, trueFrac := invalidationFractions(t, traces[t], agg, lineSize)
		sharesLines := t.ObjSize%lineSize != 0
		falseFrac := 0.0
		if sharesLines {
			falseFrac = invalFrac - trueFrac
			if falseFrac < 0 {
				falseFrac = 0
			}
		} else {
			trueFrac = invalFrac
		}

		row.InvalidationPct = 100 * invalFrac
		row.TrueSharingPct = 100 * (invalFrac - falseFrac)
		row.FalseSharingPct = 100 * falseFrac

		rest := 1 - invalFrac
		if rest < 0 {
			rest = 0
		}
		conflictShare := 0.0
		if ws != nil {
			conflictShare = ws.conflictShare(t)
			if ws.spreadEvenly() {
				// Broad overload means the cache is simply too small:
				// attribute the overflow to capacity.
				conflictShare = 0
			}
		}
		row.ConflictPct = 100 * rest * conflictShare
		row.CapacityPct = 100*rest - row.ConflictPct
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].MissSamples != rows[j].MissSamples {
			return rows[i].MissSamples > rows[j].MissSamples
		}
		return rows[i].Type.Name < rows[j].Type.Name
	})
	return rows
}

// invalidationFractions estimates, for one type, the fraction of misses due
// to cross-CPU invalidations, and the fraction attributable to writes to the
// *same object* (true sharing). With path traces it walks each miss step
// backwards looking for a cross-CPU write to the same line (§4.3); without
// them it falls back to the sampled foreign-hit fraction.
func invalidationFractions(t *TypeDesc, traces []*PathTrace, agg *TypeAggregate, lineSize uint64) (inval, trueShare float64) {
	foreignFrac := 0.0
	if agg.Misses > 0 {
		foreignFrac = float64(agg.Levels[cache.ForeignHit]+agg.Levels[cache.ForeignRemote]) / float64(agg.Misses)
	}
	if len(traces) == 0 {
		return foreignFrac, foreignFrac
	}
	var missWeight, invalWeight float64
	for _, tr := range traces {
		w := tr.Frequency
		for i := range tr.Steps {
			st := &tr.Steps[i]
			if st.Synthetic || !st.HaveStats {
				continue
			}
			mp := st.MissProb()
			if mp == 0 {
				continue
			}
			missWeight += w * mp
			if priorCrossCPUWrite(tr.Steps[:i], st, lineSize) {
				invalWeight += w * mp
			}
		}
	}
	if missWeight == 0 {
		return foreignFrac, foreignFrac
	}
	frac := invalWeight / missWeight
	// True sharing can never exceed the observed invalidation level; the
	// sampled foreign fraction anchors the total.
	if foreignFrac > frac {
		return foreignFrac, frac
	}
	return frac, frac
}

// priorCrossCPUWrite reports whether any earlier step wrote a cache line the
// given step reads, from a different CPU.
func priorCrossCPUWrite(prior []PathStep, st *PathStep, lineSize uint64) bool {
	lineLo := uint64(st.OffLo) / lineSize
	lineHi := uint64(st.OffHi-1) / lineSize
	for i := len(prior) - 1; i >= 0; i-- {
		p := &prior[i]
		if p.Synthetic || !p.Write || p.CPU == st.CPU {
			continue
		}
		plo := uint64(p.OffLo) / lineSize
		phi := uint64(p.OffHi-1) / lineSize
		if plo <= lineHi && lineLo <= phi {
			return true
		}
	}
	return false
}
