package exp

import (
	"fmt"
	"strings"

	"dprof/internal/core"
	"dprof/internal/mem"
	"dprof/internal/plot"
	"dprof/internal/sim"
)

func init() {
	register("table6.7", "object access history collection time and overhead", runTable67)
	register("table6.8", "object access history collection rates", runTable68)
	register("table6.9", "object access history overhead breakdown", runTable69)
	register("figure6.3", "unique paths captured vs history sets collected", runFigure63)
	register("table6.10", "pairwise sampling collection time and overhead", runTable610)
}

// liveWorkload is a primed workload instance the collection experiments
// drive incrementally.
type liveWorkload struct {
	name  string
	m     *sim.Machine
	alloc *mem.Allocator
}

// newWorkload builds a registered workload at its default operating point
// and primes it so the machine can be driven incrementally with w.m.Run.
func newWorkload(app string, horizon uint64) *liveWorkload {
	inst := build(app, nil)
	inst.Prime(horizon)
	m := inst.Machine()
	return &liveWorkload{name: app, m: m, alloc: inst.Alloc()}
}

// historyAttached, when set, sees every profiler attachHistoryProfiler
// attaches. Tests use it to inspect a history run's profiler afterwards.
var historyAttached func(*core.Profiler)

// attachHistoryProfiler attaches a sampling profiler for history collection
// on w, with the full 8-byte debug-register window. It keeps no per-object
// address records: only the working-set views (§4.2) read them, and no
// history experiment renders those.
func attachHistoryProfiler(w *liveWorkload) *core.Profiler {
	cfg := core.DefaultConfig()
	cfg.WatchLen = 8
	cfg.MaxAddrRecords = core.NoAddrRecords
	p := core.Attach(w.m, w.alloc, cfg)
	p.StartSampling()
	if historyAttached != nil {
		historyAttached(p)
	}
	return p
}

// driveUntilDone steps the machine until the collector's queue empties or
// the simulated-time budget runs out. It returns true when collection
// finished.
func driveUntilDone(w *liveWorkload, col *core.Collector, budget uint64) bool {
	const step = 10_000_000 // 10 ms chunks
	for t := uint64(step); t <= budget; t += step {
		w.m.Run(t)
		if col.Pending() == 0 {
			return true
		}
	}
	return col.Pending() == 0
}

// paperCollectables lists the (workload, type) pairs of Tables 6.7-6.10.
var paperCollectables = []struct {
	app   string
	types []string
}{
	{"memcached", []string{"size-1024", "skbuff"}},
	{"apache", []string{"size-1024", "skbuff", "skbuff_fclone", "tcp_sock"}},
}

// collectOutcome is one (workload, type) measurement.
type collectOutcome struct {
	app       string
	typ       *mem.Type
	stats     *core.CollectStats
	completed bool
}

// collectSingles runs single-offset history collection for every type of one
// workload and returns per-type outcomes.
func collectSingles(app string, typeNames []string, sets int, quick bool) []collectOutcome {
	budget := uint64(1_500_000_000)
	if quick {
		budget = 250_000_000
	}
	w := newWorkload(app, budget)
	p := attachHistoryProfiler(w)
	var types []*mem.Type
	for _, n := range typeNames {
		t := w.alloc.TypeByName(n)
		if t == nil {
			panic("exp: unknown type " + n)
		}
		types = append(types, t)
	}
	p.Collector.MaxLifetime = 2_000_000 // truncate ring-resident objects at 2 ms
	p.CollectHistories(sets, types...)
	done := driveUntilDone(w, p.Collector, budget)
	p.Collector.FinalizeStats()
	var out []collectOutcome
	for _, t := range types {
		out = append(out, collectOutcome{
			app: app, typ: t, stats: p.Collector.StatsFor(t),
			completed: done,
		})
	}
	return out
}

// collectAllSingles runs the paper's full (workload, type) matrix.
func collectAllSingles(sets int, quick bool) []collectOutcome {
	var out []collectOutcome
	for _, c := range paperCollectables {
		types := c.types
		if quick {
			types = types[:1]
		}
		out = append(out, collectSingles(c.app, types, sets, quick)...)
	}
	return out
}

// runTable67 regenerates Table 6.7: per-type history counts, sets,
// collection time, and overhead. The paper collects 32-80 sets; the
// simulated machine collects fewer (one or two, to keep the run short), so
// the comparison is the per-type *ordering* of times and overheads.
func runTable67(rc RunCfg) Result {
	quick := rc.Quick
	sets := 2
	if quick {
		sets = 1
	}
	outcomes := collectAllSingles(sets, quick)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-14s %6s %10s %6s %10s %10s\n",
		"Benchmark", "Data Type", "Size", "Histories", "Sets", "Time (ms)", "Overhead")
	vals := map[string]float64{}
	for _, o := range outcomes {
		cs := o.stats
		secs := cs.CollectionSeconds()
		oh := cs.OverheadPct()
		note := ""
		if !o.completed {
			note = " (budget hit)"
		}
		fmt.Fprintf(&sb, "%-10s %-14s %6d %10d %6d %10.1f %9.2f%%%s\n",
			o.app, o.typ.Name, o.typ.Size, cs.Histories, cs.Sets, 1000*secs, oh, note)
		key := o.app + "_" + o.typ.Name
		vals[key+"_time_ms"] = 1000 * secs
		vals[key+"_overhead_pct"] = oh
		vals[key+"_histories"] = float64(cs.Histories)
	}
	return Result{Text: sb.String(), Values: vals}
}

// runTable68 regenerates Table 6.8: collection rates.
func runTable68(rc RunCfg) Result {
	quick := rc.Quick
	sets := 2
	if quick {
		sets = 1
	}
	outcomes := collectAllSingles(sets, quick)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-14s %14s %14s %14s\n",
		"Benchmark", "Data Type", "Elems/History", "Histories/s", "Elements/s")
	vals := map[string]float64{}
	for _, o := range outcomes {
		cs := o.stats
		secs := cs.CollectionSeconds()
		eph, hps, eps := 0.0, 0.0, 0.0
		if cs.Histories > 0 {
			eph = float64(cs.Elements) / float64(cs.Histories)
		}
		if secs > 0 {
			hps = float64(cs.Histories) / secs
			eps = float64(cs.Elements) / secs
		}
		fmt.Fprintf(&sb, "%-10s %-14s %14.1f %14.0f %14.0f\n", o.app, o.typ.Name, eph, hps, eps)
		key := o.app + "_" + o.typ.Name
		vals[key+"_elems_per_hist"] = eph
		vals[key+"_hist_per_sec"] = hps
		vals[key+"_elems_per_sec"] = eps
	}
	return Result{Text: sb.String(), Values: vals}
}

// runTable69 regenerates Table 6.9: the overhead breakdown (debug-register
// interrupts vs memory-subsystem reservation vs cross-core setup
// communication) for the Apache types.
func runTable69(rc RunCfg) Result {
	quick := rc.Quick
	sets := 2
	types := []string{"size-1024", "skbuff", "skbuff_fclone", "tcp_sock"}
	if quick {
		sets = 1
		types = types[:2]
	}
	outcomes := collectSingles("apache", types, sets, quick)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %12s %10s %15s\n", "Data Type", "Interrupts", "Memory", "Communication")
	vals := map[string]float64{}
	for _, o := range outcomes {
		oh := o.stats.Overhead
		total := float64(oh["interrupt"] + oh["memory"] + oh["communication"])
		if total == 0 {
			total = 1
		}
		ip := 100 * float64(oh["interrupt"]) / total
		mp := 100 * float64(oh["memory"]) / total
		cp := 100 * float64(oh["communication"]) / total
		fmt.Fprintf(&sb, "%-14s %11.0f%% %9.0f%% %14.0f%%\n", o.typ.Name, ip, mp, cp)
		vals[o.typ.Name+"_interrupt_pct"] = ip
		vals[o.typ.Name+"_memory_pct"] = mp
		vals[o.typ.Name+"_communication_pct"] = cp
	}
	sb.WriteString("(paper: communication dominates for all types, 30-90%)\n")
	return Result{Text: sb.String(), Values: vals}
}

// runFigure63 regenerates Figure 6-3: the fraction of unique execution paths
// captured as a function of how many history sets were collected, relative
// to a large-baseline collection.
func runFigure63(rc RunCfg) Result {
	quick := rc.Quick
	maxSets := 12
	budget := uint64(2_500_000_000)
	if quick {
		maxSets = 6
		budget = 400_000_000
	}
	w := newWorkload("memcached", budget)
	p := attachHistoryProfiler(w)
	skb := w.alloc.TypeByName("skbuff")
	// Watch the header region only (the paper's "profile just the bytes
	// that cover the chosen members", §6.4): path identity lives there.
	p.Collector.AddSingleTargetsRange(skb, 0, 128, maxSets)
	p.Collector.Start()
	driveUntilDone(w, p.Collector, budget)

	collected := p.Collector.SetsCollected(skb)
	baseline := p.Collector.UniquePathCount(skb, collected)
	var sb strings.Builder
	fmt.Fprintf(&sb, "unique skbuff paths vs history sets (baseline: %d paths at %d sets)\n",
		baseline, collected)
	fmt.Fprintf(&sb, "%6s %12s %10s\n", "sets", "paths", "% of all")
	vals := map[string]float64{"baseline_paths": float64(baseline), "sets_collected": float64(collected)}
	for k := 1; k <= collected; k++ {
		n := p.Collector.UniquePathCount(skb, k)
		pct := 0.0
		if baseline > 0 {
			pct = 100 * float64(n) / float64(baseline)
		}
		fmt.Fprintf(&sb, "%6d %12d %9.1f%%\n", k, n, pct)
		vals[fmt.Sprintf("pct_at_%d", k)] = pct
	}
	ch := plot.New("Figure 6-3: % of unique paths vs history sets", "history sets", "% of all paths")
	var xs, ys []float64
	for k := 1; k <= collected; k++ {
		xs = append(xs, float64(k))
		ys = append(ys, vals[fmt.Sprintf("pct_at_%d", k)])
	}
	ch.Add(plot.Series{Name: "skbuff (memcached)", X: xs, Y: ys})
	sb.WriteString("\n")
	sb.WriteString(ch.Render())
	sb.WriteString("(the paper finds 30-100 sets capture most unique paths; the curve saturates)\n")
	return Result{Text: sb.String(), Values: vals}
}

// runTable610 regenerates Table 6.10: pairwise sampling, which needs
// quadratically more histories per set; DProf limits the pairs to the
// hottest members found in the access samples.
func runTable610(rc RunCfg) Result {
	quick := rc.Quick
	budget := uint64(2_000_000_000)
	maxOffsets := 8
	if quick {
		budget = 300_000_000
		maxOffsets = 4
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-14s %6s %14s %10s %10s\n",
		"Benchmark", "Data Type", "Size", "Histories/Sets", "Time (ms)", "Overhead")
	vals := map[string]float64{}
	for _, c := range paperCollectables {
		types := c.types
		if quick {
			types = types[:1]
		}
		w := newWorkload(c.app, budget)
		p := attachHistoryProfiler(w)
		// Sample long enough to know the hot members before queueing pairs.
		w.m.Run(5_000_000)
		for _, n := range types {
			t := w.alloc.TypeByName(n)
			p.CollectPairwise(t, nil, 1, maxOffsets)
		}
		driveUntilDone(w, p.Collector, budget)
		p.Collector.FinalizeStats()
		for _, n := range types {
			t := w.alloc.TypeByName(n)
			cs := p.Collector.StatsFor(t)
			secs := cs.CollectionSeconds()
			oh := cs.OverheadPct()
			fmt.Fprintf(&sb, "%-10s %-14s %6d %11d/%-2d %10.1f %9.2f%%\n",
				c.app, t.Name, t.Size, cs.Histories, cs.Sets, 1000*secs, oh)
			key := c.app + "_" + t.Name
			vals[key+"_histories"] = float64(cs.Histories)
			vals[key+"_time_ms"] = 1000 * secs
			vals[key+"_overhead_pct"] = oh
		}
	}
	sb.WriteString("(pairwise needs quadratically more histories; the paper's Table 6.10 shows the same blow-up)\n")
	return Result{Text: sb.String(), Values: vals}
}
