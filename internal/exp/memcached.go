package exp

import (
	"fmt"
	"strconv"
	"strings"

	"dprof/internal/core"
	"dprof/internal/oprofile"
)

func init() {
	register("table6.1", "memcached working set and data profile views (DProf)", runTable61)
	register("figure6.1", "skbuff data flow view for memcached (DProf)", runFigure61)
	register("table6.2", "memcached lock statistics (lock-stat)", runTable62)
	register("table6.3", "memcached top functions (OProfile)", runTable63)
	register("fix-memcached", "local TX queue selection fix (+57% in the paper)", runFixMemcached)
}

// memcachedOpts builds the option map shared by the run memo's keying.
func memcachedOpts(fix bool) map[string]string {
	return map[string]string{"fix": strconv.FormatBool(fix)}
}

// runTable61 regenerates Table 6.1: the data profile of the memcached
// workload under the buggy default queue selection. Its session shares a
// memo key, and so its entire run, with ext-oracle.
func runTable61(rc RunCfg) Result {
	w := memcachedWindow(rc.Quick)
	var out Result
	rc.session("memcached", memcachedOpts(false), core.SessionConfig{
		Profiler: core.DefaultConfig(),
		Warmup:   w.warmup,
		Measure:  w.measure,
	}, func(s *core.Session, _ core.RunResult) {
		dp := s.Profiler().DataProfile()
		vals := map[string]float64{}
		for _, row := range dp.Rows {
			vals[row.Type.Name+"_misspct"] = row.MissPct
			vals[row.Type.Name+"_ws_bytes"] = float64(row.WorkingSetBytes)
			if row.Bounce {
				vals[row.Type.Name+"_bounce"] = 1
			}
		}
		if len(dp.Rows) > 0 {
			vals["top_is_size1024"] = boolVal(dp.Rows[0].Type.Name == "size-1024")
		}
		out = Result{Text: dp.String(), Values: vals}
	})
	return out
}

// runFigure61 regenerates Figure 6-1: the data flow view for skbuff objects,
// with the cross-CPU hop through the qdisc.
func runFigure61(rc RunCfg) Result {
	sets := 3
	measure := uint64(120_000_000)
	if rc.Quick {
		sets = 1
		measure = 40_000_000
	}
	pcfg := core.DefaultConfig()
	// Watching the skbuff header region is enough to see the transmit path;
	// the paper similarly profiles the most-used members (§6.4).
	var out Result
	rc.session("memcached", memcachedOpts(false), core.SessionConfig{
		Profiler:   pcfg,
		TypeName:   "skbuff",
		Sets:       sets,
		WatchRange: 128,
		Warmup:     1_000_000,
		Measure:    measure,
	}, func(s *core.Session, _ core.RunResult) {
		p, skb := s.Profiler(), s.Target()
		g := p.DataFlow(skb)
		edges := g.CrossCPUEdges()
		var sb strings.Builder
		sb.WriteString(g.Render())
		sb.WriteString("\ncross-CPU transitions (bold edges in Figure 6-1):\n")
		vals := map[string]float64{
			"cross_cpu_edges": float64(len(edges)),
			"histories":       float64(len(p.HistoriesFor(skb))),
		}
		for _, e := range edges {
			fmt.Fprintf(&sb, "  %s ==> %s (x%d)\n", e.From, e.To, e.Count)
			if strings.Contains(e.From, "pfifo_fast_enqueue") || strings.Contains(e.To, "pfifo_fast_dequeue") ||
				strings.Contains(e.From, "dev_queue_xmit") || strings.Contains(e.To, "dev_hard_start_xmit") {
				vals["qdisc_hop"] = 1
			}
		}
		sb.WriteString("\nGraphviz form:\n")
		sb.WriteString(g.DOT())
		out = Result{Text: sb.String(), Values: vals}
	})
	return out
}

// runTable62 regenerates Table 6.2: lock-stat output for memcached. No DProf
// session here: the baseline runs unprofiled, exactly as the paper did. The
// bare run shares its full configuration with fix-memcached's default side.
func runTable62(rc RunCfg) Result {
	w := memcachedWindow(rc.Quick)
	var out Result
	rc.bare("memcached", memcachedOpts(false), w, func(b core.Runnable, _ core.RunResult) {
		rep := b.Locks().BuildReport(w.measure * uint64(b.Machine().NumCores()))
		vals := map[string]float64{}
		for _, row := range rep.Rows {
			vals[strings.ReplaceAll(row.Name, " ", "_")+"_overhead_pct"] = row.OverheadPct
			vals[strings.ReplaceAll(row.Name, " ", "_")+"_wait_s"] = seconds(row.WaitCycles)
		}
		if len(rep.Rows) > 0 {
			vals["top_is_qdisc"] = boolVal(rep.Rows[0].Name == "Qdisc lock")
		}
		out = Result{Text: rep.String(), Values: vals}
	})
	return out
}

// runTable63 regenerates Table 6.3: OProfile's flat function profile for
// memcached (again unprofiled by DProf). OProfile attaches before the run,
// outside the session plumbing, so this experiment always runs cold.
func runTable63(rc RunCfg) Result {
	w := memcachedWindow(rc.Quick)
	b := buildMemcached(false)
	op := oprofile.Attach(b.Machine())
	op.Start()
	core.RunBare(b, w.warmup, w.measure)
	rep := op.BuildReport(1.0)
	vals := map[string]float64{"functions_over_1pct": float64(len(rep.Rows))}
	for i, row := range rep.Rows {
		if i < 8 {
			vals["clk_"+row.Function] = row.ClkPct
		}
	}
	if len(rep.Rows) > 0 {
		vals["top_clk_pct"] = rep.Rows[0].ClkPct
	}
	return Result{Text: rep.String(), Values: vals}
}

// runFixMemcached measures the §6.1 fix: default hashed TX queue selection
// versus the driver-local queue selection. The default side shares its run
// with table6.2's lock-stat baseline.
func runFixMemcached(rc RunCfg) Result {
	w := memcachedWindow(rc.Quick)
	var stDefault, stFixed core.RunResult
	rc.bare("memcached", memcachedOpts(false), w, func(_ core.Runnable, res core.RunResult) { stDefault = res })
	rc.bare("memcached", memcachedOpts(true), w, func(_ core.Runnable, res core.RunResult) { stFixed = res })
	speedup := stFixed.Values["throughput"] / stDefault.Values["throughput"]
	text := fmt.Sprintf("default (skb_tx_hash):   %s\nfixed (local queue):     %s\nimprovement: %.0f%%  (paper: +57%%)\n",
		stDefault.Summary, stFixed.Summary, 100*(speedup-1))
	return Result{Text: text, Values: map[string]float64{
		"tput_default": stDefault.Values["throughput"],
		"tput_fixed":   stFixed.Values["throughput"],
		"speedup":      speedup,
	}}
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
