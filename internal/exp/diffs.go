package exp

import (
	"fmt"
	"strings"

	"dprof/internal/core"
)

// Per-scenario before/after-fix diff experiments: each one profiles a
// contention scenario broken and fixed, diffs the two data profiles with
// the windowed pipeline's ranked DiffProfiles layer, and checks that the
// paper's known bottleneck type ranks first — the automated form of the
// §6.2.1 differential-analysis workflow the `dprof -diff` flag and dprofd's
// POST /diff expose interactively.

func init() {
	register("diff-falseshare", "diff: packed vs padded counters ranks pkt_stat first", diffExp("falseshare", "padded", []string{"pkt_stat"}))
	register("diff-conflict", "diff: aligned vs colored ring ranks hot_buf first", diffExp("conflict", "colored", []string{"hot_buf"}))
	register("diff-trueshare", "diff: shared vs partitioned buckets ranks the job path first", diffExp("trueshare", "partition", []string{"job", "job_counter"}))
	register("diff-alienping", "diff: remote vs local frees ranks ping_obj first", diffExp("alienping", "localfree", []string{"ping_obj"}))
	register("diff-numaremote", "diff: remote vs node-local allocation ranks numa_buf first", diffExp("numaremote", "localalloc", []string{"numa_buf"}))
}

// diffExp builds a Runner that profiles `name` with fixOption off (broken,
// baseline A) and on (fixed, B), ranks the per-type deltas, and reports
// whether one of the expected types tops the ranking.
func diffExp(name, fixOption string, expected []string) Runner {
	return func(rc RunCfg) Result {
		w := windowFor(name, rc.Quick)
		side := func(fixed bool) (res core.RunResult, dp *core.DataProfile) {
			rc.session(name, boolOpt(fixOption, fixed), core.SessionConfig{
				Profiler: core.Config{SampleRate: 100_000},
				Warmup:   w.warmup,
				Measure:  w.measure,
			}, func(s *core.Session, r core.RunResult) {
				res, dp = r, s.Profiler().DataProfile()
			})
			return
		}
		broken, dpBroken := side(false)
		fixed, dpFixed := side(true)
		d := core.DiffProfiles(dpBroken, dpFixed)

		var sb strings.Builder
		fmt.Fprintf(&sb, "A (broken): %s\nB (fixed):  %s\n\n", broken.Summary, fixed.Summary)
		sb.WriteString(d.String())

		vals := map[string]float64{
			"tput_broken": broken.Values["throughput"],
			"tput_fixed":  fixed.Values["throughput"],
		}
		topIsExpected := 0.0
		if len(d.Rows) > 0 {
			top := d.Rows[0]
			vals["top_score"] = top.Score
			for _, want := range expected {
				if top.Type == want {
					topIsExpected = 1
					break
				}
			}
			fmt.Fprintf(&sb, "\ntop suspect: %s (score %.2f, miss %+.2fpp, cross-chip %+.2fpp, ws %+.2fpp)\n",
				top.Type, top.Score, top.MissDelta, top.CrossDelta, top.WSDelta)
		}
		vals["top_is_expected"] = topIsExpected
		for _, r := range d.Rows {
			for _, want := range expected {
				if r.Type == want {
					vals["expected_miss_delta"] = r.MissDelta
					vals["expected_score"] = r.Score
				}
			}
		}
		fmt.Fprintf(&sb, "expected bottleneck (%s) ranked first: %v\n",
			strings.Join(expected, "|"), topIsExpected == 1)
		return Result{Text: sb.String(), Values: vals}
	}
}
