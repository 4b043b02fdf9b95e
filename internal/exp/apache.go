package exp

import (
	"fmt"
	"strconv"
	"strings"

	"dprof/internal/app/apachesim"
	"dprof/internal/core"
)

func init() {
	register("table6.4", "Apache at peak: working set and data profile views (DProf)", runTable64)
	register("table6.5", "Apache at drop-off: working set and data profile views (DProf)", runTable65)
	register("table6.6", "Apache lock statistics (lock-stat)", runTable66)
	register("fix-apache", "accept-queue admission control fix (+16% in the paper)", runFixApache)
}

// apacheOpts builds the option map for one Apache operating point (shared
// with figure6.2's baseline so the run memo's keys line up).
func apacheOpts(offered float64, backlog int) map[string]string {
	return map[string]string{
		"offered": strconv.FormatFloat(offered, 'f', -1, 64),
		"backlog": strconv.Itoa(backlog),
	}
}

// apacheProfile runs DProf over Apache at one operating point and returns
// the data profile plus the tcp_sock miss latency (the 50 vs 150 cycle
// comparison of §6.2.1). The peak-load session is shared between table6.4
// and table6.5's differential baseline.
func apacheProfile(rc RunCfg, offered float64) Result {
	w := apacheWindow(rc.Quick)
	var out Result
	rc.session("apache", apacheOpts(offered, 0), core.SessionConfig{
		Profiler: core.DefaultConfig(),
		Warmup:   w.warmup,
		Measure:  w.measure,
	}, func(s *core.Session, st core.RunResult) {
		dp := s.Profiler().DataProfile()
		vals := map[string]float64{"throughput": st.Values["throughput"], "refused": st.Values["refused"]}
		for _, row := range dp.Rows {
			vals[row.Type.Name+"_misspct"] = row.MissPct
			vals[row.Type.Name+"_ws_bytes"] = float64(row.WorkingSetBytes)
			if row.Bounce {
				vals[row.Type.Name+"_bounce"] = 1
			}
			if row.Type.Name == "tcp_sock" {
				vals["tcp_sock_miss_latency"] = row.AvgMissLatency
			}
		}
		var sb strings.Builder
		sb.WriteString(dp.String())
		fmt.Fprintf(&sb, "\nthroughput: %.0f req/s; tcp_sock avg miss latency: %.0f cycles\n",
			st.Values["throughput"], vals["tcp_sock_miss_latency"])
		out = Result{Text: sb.String(), Values: vals}
	})
	return out
}

// runTable64 regenerates Table 6.4: Apache profiled at peak load.
func runTable64(rc RunCfg) Result {
	return apacheProfile(rc, apachesim.PeakOffered)
}

// runTable65 regenerates Table 6.5: Apache profiled past the drop-off, where
// the tcp_sock working set balloons. The comparison values against Table 6.4
// are what §6.2.1 calls differential analysis.
func runTable65(rc RunCfg) Result {
	peak := apacheProfile(rc, apachesim.PeakOffered)
	drop := apacheProfile(rc, apachesim.DropOffOffered)
	growth := 0.0
	if pb := peak.Values["tcp_sock_ws_bytes"]; pb > 0 {
		growth = drop.Values["tcp_sock_ws_bytes"] / pb
	}
	var sb strings.Builder
	sb.WriteString(drop.Text)
	fmt.Fprintf(&sb, "\ndifferential vs peak: tcp_sock working set grew %.1fx (%.2fMB -> %.2fMB)\n",
		growth, peak.Values["tcp_sock_ws_bytes"]/(1<<20), drop.Values["tcp_sock_ws_bytes"]/(1<<20))
	fmt.Fprintf(&sb, "tcp_sock avg miss latency: %.0f -> %.0f cycles (paper: 50 -> 150)\n",
		peak.Values["tcp_sock_miss_latency"], drop.Values["tcp_sock_miss_latency"])
	drop.Values["tcp_sock_ws_growth"] = growth
	drop.Values["peak_tcp_sock_miss_latency"] = peak.Values["tcp_sock_miss_latency"]
	drop.Values["peak_throughput"] = peak.Values["throughput"]
	drop.Text = sb.String()
	return drop
}

// runTable66 regenerates Table 6.6: lock-stat for Apache (the futex lock is
// the only busy class, and it says nothing about the real problem). The
// bare run shares its full configuration with fix-apache's deep side.
func runTable66(rc RunCfg) Result {
	w := apacheWindow(rc.Quick)
	var out Result
	rc.bare("apache", apacheOpts(apachesim.DropOffOffered, 0), w, func(b core.Runnable, _ core.RunResult) {
		rep := b.Locks().BuildReport(w.measure * uint64(b.Machine().NumCores()))
		vals := map[string]float64{}
		for _, row := range rep.Rows {
			vals[strings.ReplaceAll(row.Name, " ", "_")+"_overhead_pct"] = row.OverheadPct
		}
		if len(rep.Rows) > 0 {
			vals["top_is_futex"] = boolVal(rep.Rows[0].Name == "futex lock")
		}
		out = Result{Text: rep.String(), Values: vals}
	})
	return out
}

// runFixApache measures the §6.2 fix: the default deep backlog versus
// admission control, both under the drop-off offered load. The deep side
// shares its run with table6.6; the capped side with figure6.2's Apache
// baseline.
func runFixApache(rc RunCfg) Result {
	w := apacheWindow(rc.Quick)
	var stDeep, stCapped core.RunResult
	rc.bare("apache", apacheOpts(apachesim.DropOffOffered, 0), w,
		func(_ core.Runnable, res core.RunResult) { stDeep = res })
	rc.bare("apache", apacheOpts(apachesim.DropOffOffered, apachesim.FixedBacklog), w,
		func(_ core.Runnable, res core.RunResult) { stCapped = res })
	speedup := stCapped.Values["throughput"] / stDeep.Values["throughput"]
	text := fmt.Sprintf("deep backlog (511):      %s\nadmission control (%d):  %s\nimprovement: %.0f%%  (paper: +16%%)\n",
		stDeep.Summary, apachesim.FixedBacklog, stCapped.Summary, 100*(speedup-1))
	return Result{Text: text, Values: map[string]float64{
		"tput_deep":   stDeep.Values["throughput"],
		"tput_capped": stCapped.Values["throughput"],
		"speedup":     speedup,
	}}
}
