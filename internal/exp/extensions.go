package exp

import (
	"fmt"
	"strings"

	"dprof/internal/core"
	"dprof/internal/hw"
	"dprof/internal/ptu"
	"dprof/internal/sim"
)

func init() {
	register("ext-oracle", "extension: oracle cache-contents working set vs DProf's estimate (§7)", runExtOracle)
	register("ext-widewatch", "extension: variable-size debug registers vs 8-byte windows (§7)", runExtWideWatch)
	register("ext-pebs", "extension: PEBS load-latency sampling vs IBS sample efficiency (§2.2)", runExtPEBS)
	register("ext-ptu", "baseline: Intel-PTU-style line profiler cannot name dynamic data (§2.2)", runExtPTU)
	register("ablation-merge", "ablation: time-merge vs pairwise-linked path construction", runAblationMerge)
}

// runExtOracle implements the paper's §7 wish: hardware that exposes cache
// contents. The simulator has that hardware, so the experiment compares
// DProf's *estimated* per-type working set against the *actual* per-type
// cache residency, for the top memcached types.
func runExtOracle(rc RunCfg) Result {
	w := memcachedWindow(rc.Quick)
	var oracle *core.OracleWorkingSet
	var est *core.WorkingSetView
	var replay *core.ResidencyView
	var lineSize float64
	rc.session("memcached", memcachedOpts(false), core.SessionConfig{
		Profiler: core.DefaultConfig(),
		Warmup:   w.warmup,
		Measure:  w.measure,
	}, func(s *core.Session, _ core.RunResult) {
		p := s.Profiler()
		oracle = p.OracleWorkingSet()
		est = p.WorkingSet()
		replay = p.CacheResidency(core.DefaultReplayObjects) // the §4.2 replay simulation
		lineSize = float64(p.M.Hier.Config().LineSize)
	})

	var sb strings.Builder
	sb.WriteString(oracle.String())
	sb.WriteString("\nestimate vs replay vs oracle (lines in cache):\n")
	fmt.Fprintf(&sb, "%-16s %12s %12s %12s\n", "Type name", "footprint*", "replay", "oracle")
	vals := map[string]float64{
		"oracle_total_lines": float64(oracle.TotalLines),
		"oracle_unresolved":  float64(oracle.Unresolved),
	}
	for _, row := range est.Rows {
		o := oracle.LinesFor(row.Type.Name)
		if o == 0 && row.PeakBytes < 64*1024 {
			continue
		}
		estLines := float64(row.PeakBytes) / lineSize
		rp := replay.AvgLinesFor(row.Type.Name)
		fmt.Fprintf(&sb, "%-16s %12.0f %12.0f %12d\n", row.Type.Name, estLines, rp, o)
		vals[row.Type.Name+"_oracle_lines"] = float64(o)
		vals[row.Type.Name+"_estimated_lines"] = estLines
		vals[row.Type.Name+"_replay_lines"] = rp
	}
	sb.WriteString("(*) footprint = peak allocated bytes; replay = the paper's §4.2 cache\n")
	sb.WriteString("simulation (frees remove lines, LRU eviction); oracle = actual contents.\n")
	sb.WriteString("The replay sits between raw footprint and ground truth — with the §7\n")
	sb.WriteString("inspection hardware, the estimate step disappears entirely.\n")
	return Result{Text: sb.String(), Values: vals}
}

// runExtWideWatch measures the other §7 wish: variable-size debug registers.
// One skbuff history set is collected with the x86 8-byte windows, then with
// a single 128-byte window covering the whole watched region at once.
func runExtWideWatch(rc RunCfg) Result {
	quick := rc.Quick
	budget := uint64(800_000_000)
	sets := 2
	if quick {
		budget = 200_000_000
		sets = 1
	}
	run := func(wide bool) (histories int, ms float64, setups uint64) {
		w := newWorkload("memcached", budget)
		cfg := core.DefaultConfig()
		p := core.Attach(w.m, w.alloc, cfg)
		p.StartSampling()
		skb := w.alloc.TypeByName("skbuff")
		if wide {
			p.DRegs.Variable = true
			p.Collector.WatchLen = 128 // one watch covers the whole region
		} else {
			p.Collector.WatchLen = 8
		}
		p.Collector.MaxLifetime = 2_000_000
		p.Collector.AddSingleTargetsRange(skb, 0, 128, sets)
		p.Collector.Start()
		driveUntilDone(w, p.Collector, budget)
		p.Collector.FinalizeStats()
		cs := p.Collector.StatsFor(skb)
		return cs.Histories, 1000 * cs.CollectionSeconds(), p.DRegs.Setups()
	}
	nh, nt, ns := run(false)
	wh, wt, wsu := run(true)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %10s %12s %8s\n", "mode", "histories", "time (ms)", "setups")
	fmt.Fprintf(&sb, "%-28s %10d %12.1f %8d\n", "x86 8-byte registers", nh, nt, ns)
	fmt.Fprintf(&sb, "%-28s %10d %12.1f %8d\n", "variable-size registers", wh, wt, wsu)
	speedup := 0.0
	if wt > 0 {
		speedup = nt / wt
	}
	fmt.Fprintf(&sb, "\ncollection is %.1fx faster: one object lifetime covers every offset,\n", speedup)
	sb.WriteString("so the per-object setup broadcast is paid once per set instead of once per offset.\n")
	return Result{Text: sb.String(), Values: map[string]float64{
		"narrow_time_ms": nt, "wide_time_ms": wt, "speedup": speedup,
		"narrow_setups": float64(ns), "wide_setups": float64(wsu),
	}}
}

// runExtPEBS compares IBS against PEBS in its load-latency configuration:
// at the same interrupt budget, PEBS delivers almost exclusively misses, so
// DProf needs far fewer interrupts per useful (miss) sample.
func runExtPEBS(rc RunCfg) Result {
	quick := rc.Quick
	w := memcachedWindow(quick)
	const rate = 8000

	ibsRun := buildMemcached(false)
	pIBS := core.Attach(ibsRun.Machine(), ibsRun.Alloc(), core.Config{SampleRate: rate})
	pIBS.StartSampling()
	core.RunBare(ibsRun, w.warmup, w.measure)
	pIBS.Sync() // drain the per-core delta buffers before the direct read
	ibsMissFrac := float64(pIBS.Samples.TotalMisses) / float64(pIBS.Samples.Total)

	pebsRun := buildMemcached(false)
	pPEBS := core.Attach(pebsRun.Machine(), pebsRun.Alloc(), core.Config{SampleRate: rate})
	pebs := hw.NewPEBS(pebsRun.Machine())
	pebs.Start(rate, 30, func(c *sim.Ctx, s hw.Sample) { // threshold: beyond-L1 latencies
		t, base, ok := pPEBS.Alloc.Resolve(s.Ev.Addr)
		if !ok {
			pPEBS.Samples.Add(nil, 0, &s.Ev)
			return
		}
		pPEBS.Samples.Add(pPEBS.Desc(t), uint32(s.Ev.Addr-base), &s.Ev)
	})
	core.RunBare(pebsRun, w.warmup, w.measure)
	pebsMissFrac := 0.0
	if pPEBS.Samples.Total > 0 {
		pebsMissFrac = float64(pPEBS.Samples.TotalMisses) / float64(pPEBS.Samples.Total)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %10s %14s\n", "sampler", "samples", "miss fraction")
	fmt.Fprintf(&sb, "%-28s %10d %13.1f%%\n", "AMD IBS (all accesses)", pIBS.Samples.Total, 100*ibsMissFrac)
	fmt.Fprintf(&sb, "%-28s %10d %13.1f%%\n", "Intel PEBS-LL (lat >= 30)", pPEBS.Samples.Total, 100*pebsMissFrac)
	sb.WriteString("\nPEBS load-latency filtering concentrates the interrupt budget on misses,\n")
	sb.WriteString("the samples DProf's views are built from (§2.2: DProf can use PEBS on Intel).\n")
	return Result{Text: sb.String(), Values: map[string]float64{
		"ibs_miss_frac":  ibsMissFrac,
		"pebs_miss_frac": pebsMissFrac,
		"ibs_samples":    float64(pIBS.Samples.Total),
		"pebs_samples":   float64(pPEBS.Samples.Total),
	}}
}

// runExtPTU runs the Intel-PTU-style baseline on memcached: hot cache lines
// are visible but dynamic data has no names, so the size-1024/skbuff story
// is invisible (§2.2).
func runExtPTU(rc RunCfg) Result {
	quick := rc.Quick
	w := memcachedWindow(quick)
	b := buildMemcached(false)
	p := ptu.Attach(b.Machine(), b.Alloc())
	p.Start(12000)
	core.RunBare(b, w.warmup, w.measure)
	rep := p.BuildReport(12)
	var sb strings.Builder
	sb.WriteString(rep.String())
	sb.WriteString("\nDProf resolves the same samples to types (Table 6.1); PTU leaves the\n")
	sb.WriteString("dynamically-allocated ones — the entire case study — anonymous.\n")
	return Result{Text: sb.String(), Values: map[string]float64{
		"named_miss_pct": rep.NamedPct,
		"rows":           float64(len(rep.Rows)),
	}}
}

// runAblationMerge compares path construction with and without pairwise
// linkage on the same history population: pairwise co-occurrence evidence
// merges per-offset clusters that rank matching keeps apart.
func runAblationMerge(rc RunCfg) Result {
	quick := rc.Quick
	budget := uint64(600_000_000)
	sets := 3
	if quick {
		budget = 200_000_000
		sets = 2
	}
	w := newWorkload("memcached", budget)
	p := core.Attach(w.m, w.alloc, core.DefaultConfig())
	p.Collector.WatchLen = 8
	p.StartSampling()
	skb := w.alloc.TypeByName("skbuff")
	p.Collector.MaxLifetime = 2_000_000
	p.Collector.AddSingleTargetsRange(skb, 0, 32, sets)
	w.m.Run(5_000_000)
	p.CollectPairwise(skb, []uint32{0, 8, 16, 24}, 1, 4) // also starts the collector
	driveUntilDone(w, p.Collector, budget)

	p.Sync()
	all := p.Collector.Histories(skb)
	skbd := p.Desc(skb)
	var singles []*core.History
	for _, h := range all {
		if len(h.Offsets) == 1 {
			singles = append(singles, h)
		}
	}
	timeOnly := core.BuildPathTraces(skbd, singles, p.Samples)
	withPairs := core.BuildPathTraces(skbd, all, p.Samples)

	var sb strings.Builder
	fmt.Fprintf(&sb, "histories: %d single-offset, %d total (incl. pairs)\n", len(singles), len(all))
	fmt.Fprintf(&sb, "paths from rank matching alone:    %d\n", len(timeOnly))
	fmt.Fprintf(&sb, "paths with pairwise co-occurrence: %d\n", len(withPairs))
	sb.WriteString("(pairwise evidence links per-offset clusters that frequency ranks cannot)\n")
	return Result{Text: sb.String(), Values: map[string]float64{
		"paths_rank_only": float64(len(timeOnly)),
		"paths_pairwise":  float64(len(withPairs)),
		"histories":       float64(len(all)),
	}}
}
