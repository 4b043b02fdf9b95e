package exp

import (
	"fmt"
	"strconv"
	"strings"

	"dprof/internal/core"
	"dprof/internal/lockstat"
)

func init() {
	register("falseshare", "scenario: packed vs padded per-core counters (false sharing, §4.3)", runFalseshareExp)
	register("conflict", "scenario: aligned vs colored buffer ring (associativity conflicts, §4.2)", runConflictExp)
	register("trueshare", "scenario: shared vs partitioned job buckets (true sharing + lock contention)", runTrueshareExp)
	register("alienping", "scenario: remote vs local frees through the SLAB alien caches (§6.1)", runAlienpingExp)
	register("numaremote", "scenario: remote vs node-local allocation on the 4x4 topology (cross-chip misses)", runNumaremoteExp)
}

// boolOpt renders a single bool workload option.
func boolOpt(name string, v bool) map[string]string {
	return map[string]string{name: strconv.FormatBool(v)}
}

// missRowFor finds one type's miss-classification row.
func missRowFor(rows []core.MissClassRow, name string) (core.MissClassRow, bool) {
	for _, r := range rows {
		if r.Type.Name == name {
			return r, true
		}
	}
	return core.MissClassRow{}, false
}

// runFalseshareExp profiles the falseshare scenario in both layouts: the
// packed layout shows pkt_stat misses classified as false sharing —
// invalidation misses without any cross-CPU write to the same object —
// and padding each counter to its own line removes them.
func runFalseshareExp(rc RunCfg) Result {
	w := windowFor("falseshare", rc.Quick)
	side := func(padded bool) (res core.RunResult, rows []core.MissClassRow) {
		rc.session("falseshare", boolOpt("padded", padded), core.SessionConfig{
			Profiler:    core.Config{SampleRate: 100_000},
			TypeName:    "pkt_stat",
			Sets:        1,
			MaxLifetime: (w.warmup + w.measure) / 2, // counters live forever; truncate so traces exist
			Warmup:      w.warmup,
			Measure:     w.measure,
		}, func(s *core.Session, r core.RunResult) {
			res, rows = r, s.Profiler().MissClassification()
		})
		return
	}
	packed, packedRows := side(false)
	padded, paddedRows := side(true)

	var sb strings.Builder
	sb.WriteString("--- packed counters (16-byte alignment: 4 per cache line) ---\n")
	sb.WriteString(packed.Summary + "\n")
	sb.WriteString(core.RenderMissClassification(packedRows))
	sb.WriteString("\n--- padded counters (64-byte alignment: one per line) ---\n")
	sb.WriteString(padded.Summary + "\n")
	sb.WriteString(core.RenderMissClassification(paddedRows))

	speedup := padded.Values["throughput"] / packed.Values["throughput"]
	vals := map[string]float64{
		"tput_packed": packed.Values["throughput"],
		"tput_padded": padded.Values["throughput"],
		"speedup":     speedup,
	}
	if r, ok := missRowFor(packedRows, "pkt_stat"); ok {
		vals["packed_false_pct"] = r.FalseSharingPct
		vals["packed_true_pct"] = r.TrueSharingPct
	}
	if r, ok := missRowFor(paddedRows, "pkt_stat"); ok {
		vals["padded_false_pct"] = r.FalseSharingPct
	}
	fmt.Fprintf(&sb, "\npadding speedup: %.2fx; pkt_stat false-sharing share: %.0f%% -> %.0f%%\n",
		speedup, vals["packed_false_pct"], vals["padded_false_pct"])
	return Result{Text: sb.String(), Values: vals}
}

// runConflictExp profiles the conflict scenario in both layouts: the aligned
// pool overloads a handful of L1 sets (conflict misses while the cache sits
// nearly empty); coloring the pool spreads them.
func runConflictExp(rc RunCfg) Result {
	w := windowFor("conflict", rc.Quick)
	side := func(colored bool) (res core.RunResult, ws *core.WorkingSetView, rows []core.MissClassRow) {
		rc.session("conflict", boolOpt("colored", colored), core.SessionConfig{
			Profiler: core.Config{SampleRate: 200_000},
			Warmup:   w.warmup,
			Measure:  w.measure,
		}, func(s *core.Session, r core.RunResult) {
			res, ws, rows = r, s.Profiler().WorkingSet(), s.Profiler().MissClassification()
		})
		return
	}
	renderSide := func(sb *strings.Builder, label string, res core.RunResult, ws *core.WorkingSetView, rows []core.MissClassRow) {
		fmt.Fprintf(sb, "--- %s ---\n%s\n", label, res.Summary)
		fmt.Fprintf(sb, "mean lines/set %.2f, overloaded sets: %d\n", ws.MeanLines, len(ws.Overloaded))
		for i, s := range ws.Overloaded {
			if i == 3 {
				break
			}
			fmt.Fprintf(sb, "  set %d holds %d distinct lines (ways=%d): %v\n",
				s.Index, s.DistinctLines, ws.Ways, s.ByType)
		}
		sb.WriteString(core.RenderMissClassification(rows))
	}

	aligned, alignedWS, alignedRows := side(false)
	colored, coloredWS, coloredRows := side(true)
	var sb strings.Builder
	renderSide(&sb, "aligned pool (pathological)", aligned, alignedWS, alignedRows)
	sb.WriteString("\n")
	renderSide(&sb, "colored pool (fixed)", colored, coloredWS, coloredRows)

	speedup := colored.Values["throughput"] / aligned.Values["throughput"]
	vals := map[string]float64{
		"tput_aligned":       aligned.Values["throughput"],
		"tput_colored":       colored.Values["throughput"],
		"speedup":            speedup,
		"aligned_overloaded": float64(len(alignedWS.Overloaded)),
		"colored_overloaded": float64(len(coloredWS.Overloaded)),
	}
	if r, ok := missRowFor(alignedRows, "hot_buf"); ok {
		vals["aligned_conflict_pct"] = r.ConflictPct
	}
	if r, ok := missRowFor(coloredRows, "hot_buf"); ok {
		vals["colored_conflict_pct"] = r.ConflictPct
	}
	fmt.Fprintf(&sb, "\ncoloring speedup: %.2fx; overloaded sets %0.f -> %.0f\n",
		speedup, vals["aligned_overloaded"], vals["colored_overloaded"])
	return Result{Text: sb.String(), Values: vals}
}

// runTrueshareExp contrasts shared job buckets against the partitioned fix:
// the lock-stat baseline names the contended class, and the job data flow
// shows every object hopping cores.
func runTrueshareExp(rc RunCfg) Result {
	w := windowFor("trueshare", rc.Quick)

	// A profiled session on the shared configuration: the data flow view of
	// the job type shows the producer->consumer hop, and lock-stat names the
	// bucket lock.
	var profiled core.RunResult
	var edges []core.FlowEdge
	rc.session("trueshare", boolOpt("partition", false), core.SessionConfig{
		Profiler: core.DefaultConfig(),
		TypeName: "job",
		Sets:     2,
		Warmup:   w.warmup,
		Measure:  w.measure,
	}, func(s *core.Session, r core.RunResult) {
		profiled = r
		edges = s.Profiler().DataFlow(s.Target()).CrossCPUEdges()
	})

	// Clean (unprofiled) runs on both sides, the way the paper reports
	// fixes; the shared run doubles as the lock-stat baseline.
	var shared, part core.RunResult
	var rep lockstat.Report
	rc.bare("trueshare", boolOpt("partition", false), w, func(b core.Runnable, res core.RunResult) {
		shared = res
		rep = b.Locks().BuildReport(w.measure * uint64(b.Machine().NumCores()))
	})
	rc.bare("trueshare", boolOpt("partition", true), w,
		func(_ core.Runnable, res core.RunResult) { part = res })
	speedup := part.Values["throughput"] / shared.Values["throughput"]

	var sb strings.Builder
	fmt.Fprintf(&sb, "profiled (shared buckets): %s\n\n", profiled.Summary)
	sb.WriteString("job data flow (cross-CPU hops):\n")
	for _, e := range edges {
		fmt.Fprintf(&sb, "  %s ==> %s (x%d)\n", e.From, e.To, e.Count)
	}
	vals := map[string]float64{
		"cross_cpu_edges":  float64(len(edges)),
		"tput_shared":      shared.Values["throughput"],
		"tput_partitioned": part.Values["throughput"],
		"speedup":          speedup,
	}
	sb.WriteString("\nlock-stat baseline (shared buckets):\n")
	sb.WriteString(rep.String())
	for _, row := range rep.Rows {
		if row.Name == "job lock" {
			vals["job_lock_overhead_pct"] = row.OverheadPct
			vals["job_lock_contentions"] = float64(row.Contentions)
		}
	}
	fmt.Fprintf(&sb, "\nshared buckets:  %s\npartitioned:     %s\npartitioning speedup: %.2fx\n",
		shared.Summary, part.Summary, speedup)
	return Result{Text: sb.String(), Values: vals}
}

// runNumaremoteExp contrasts socket-0 allocation against the node-local fix
// on the paper's 4x4 topology: the data profile's locality columns show
// numa_buf served almost entirely across chips before the fix, and the
// throughput comparison shows what that costs.
func runNumaremoteExp(rc RunCfg) Result {
	w := windowFor("numaremote", rc.Quick)

	var profiled core.RunResult
	var dp *core.DataProfile
	var rows []core.MissClassRow
	var topo string
	rc.session("numaremote", boolOpt("localalloc", false), core.SessionConfig{
		Profiler: core.Config{SampleRate: 50_000},
		Warmup:   w.warmup,
		Measure:  w.measure,
	}, func(s *core.Session, r core.RunResult) {
		profiled = r
		dp = s.Profiler().DataProfile()
		rows = s.Profiler().MissClassification()
		topo = fmt.Sprint(s.Topology())
	})

	var remote, local core.RunResult
	rc.bare("numaremote", boolOpt("localalloc", false), w,
		func(_ core.Runnable, res core.RunResult) { remote = res })
	rc.bare("numaremote", boolOpt("localalloc", true), w,
		func(_ core.Runnable, res core.RunResult) { local = res })
	speedup := local.Values["throughput"] / remote.Values["throughput"]

	var sb strings.Builder
	fmt.Fprintf(&sb, "profiled (remote alloc, topology %s): %s\n\n", topo, profiled.Summary)
	sb.WriteString(dp.String())
	sb.WriteString("\n")
	sb.WriteString(core.RenderMissClassification(rows))
	vals := map[string]float64{
		"tput_remote":        remote.Values["throughput"],
		"tput_local":         local.Values["throughput"],
		"speedup":            speedup,
		"remote_xchip_share": remote.Values["cross_chip_share"],
		"local_xchip_share":  local.Values["cross_chip_share"],
	}
	for _, row := range dp.Rows {
		if row.Type.Name == "numa_buf" {
			vals["numa_buf_misspct"] = row.MissPct
			vals["numa_buf_xchip_pct"] = row.CrossChipPct
			vals["numa_buf_rdram_pct"] = row.RemoteDRAMPct
		}
	}
	fmt.Fprintf(&sb, "\nremote alloc: %s\nlocal alloc:  %s\nnode-local speedup: %.2fx\n",
		remote.Summary, local.Summary, speedup)
	sb.WriteString("(before the fix, consumer chips pull every buffer across the interconnect; after it, the hot loop is node-local)\n")
	return Result{Text: sb.String(), Values: vals}
}

// runAlienpingExp contrasts remote frees (through the alien caches) against
// the local-free fix: the data profile of the remote-free run shows the
// allocator's own bookkeeping types bouncing between cores.
func runAlienpingExp(rc RunCfg) Result {
	w := windowFor("alienping", rc.Quick)

	var profiled core.RunResult
	var dp *core.DataProfile
	rc.session("alienping", boolOpt("localfree", false), core.SessionConfig{
		Profiler: core.Config{SampleRate: 50_000},
		Warmup:   w.warmup,
		Measure:  w.measure,
	}, func(s *core.Session, r core.RunResult) {
		profiled = r
		dp = s.Profiler().DataProfile()
	})

	var remote, local core.RunResult
	rc.bare("alienping", boolOpt("localfree", false), w,
		func(_ core.Runnable, res core.RunResult) { remote = res })
	rc.bare("alienping", boolOpt("localfree", true), w,
		func(_ core.Runnable, res core.RunResult) { local = res })
	speedup := local.Values["throughput"] / remote.Values["throughput"]

	var sb strings.Builder
	fmt.Fprintf(&sb, "profiled (remote free): %s\n\n", profiled.Summary)
	sb.WriteString(dp.String())
	vals := map[string]float64{
		"tput_remote": remote.Values["throughput"],
		"tput_local":  local.Values["throughput"],
		"speedup":     speedup,
	}
	for _, row := range dp.Rows {
		switch row.Type.Name {
		case "ping_obj":
			vals["ping_obj_misspct"] = row.MissPct
		case "slab", "array_cache":
			if row.Bounce {
				vals[row.Type.Name+"_bounce"] = 1
			}
		}
	}
	fmt.Fprintf(&sb, "\nremote free: %s\nlocal free:  %s\nlocal-free speedup: %.2fx\n",
		remote.Summary, local.Summary, speedup)
	sb.WriteString("(the remote-free run drains alien caches: slab and array_cache lines are written from the wrong core)\n")
	return Result{Text: sb.String(), Values: vals}
}
