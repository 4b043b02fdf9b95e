package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"dprof/internal/exp"
)

// suiteList is the engine-suite experiment list: every family of the
// paper reproduction — memcached tables, apache tables, the sampling
// overhead figure, one history-collection table (the other three would
// take most of the run), the diffs, the extensions and the scenarios.
var suiteList = []string{
	"table6.1", "figure6.1", "table6.2", "table6.3", "fix-memcached",
	"table6.4", "table6.5", "table6.6", "fix-apache",
	"figure6.2", "table6.9",
	"diff-falseshare", "diff-conflict", "diff-trueshare", "diff-alienping", "diff-numaremote",
	"ext-oracle", "ext-widewatch", "ext-pebs", "ext-ptu", "ablation-merge",
	"falseshare", "conflict", "trueshare", "alienping", "numaremote",
}

// goldenPath holds every quick experiment's checked-in Values, relative to
// the repository root the benchmark runs from. It is only read.
const goldenPath = "internal/exp/testdata/golden_quick.json"

// suiteRef is how long one pass over the list takes on the reference host.
const suiteRef = 8 * time.Second

// setupExperiment is run once during engine set-up so the first timed
// suite does not pay for first-touch costs.
const setupExperiment = "table6.1"

func loadGolden() (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, err
	}
	var g map[string]map[string]float64
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", goldenPath, err)
	}
	return g, nil
}

// checkGolden compares an experiment's Values with the golden bit for bit.
func checkGolden(golden map[string]map[string]float64, r exp.Result) error {
	want, ok := golden[r.Name]
	if !ok {
		return fmt.Errorf("%s: not in %s", r.Name, goldenPath)
	}
	if len(want) != len(r.Values) {
		return fmt.Errorf("%s: %d values, golden has %d", r.Name, len(r.Values), len(want))
	}
	for k, w := range want {
		if g, ok := r.Values[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("%s: value %s = %v, golden %v", r.Name, k, g, w)
		}
	}
	return nil
}

// suiteRun is one pass over the experiment list.
type suiteRun struct {
	elapsed time.Duration
	perExp  map[string]time.Duration // exp.Event.Elapsed of each finished experiment
	failed  int
	errs    []error
}

// runSuite runs the list once on one worker and checks every result
// against the goldens. With a tracer, each experiment becomes a span under
// one suite span.
func runSuite(names []string, warm bool, golden map[string]map[string]float64, tr *tracer) suiteRun {
	var mu sync.Mutex
	run := suiteRun{perExp: map[string]time.Duration{}}
	spanName := "exp.suite.cold"
	if warm {
		spanName = "exp.suite.warm"
	}
	req := tr.newReq()
	root := tr.start(spanName, 0, req)
	start := time.Now()
	results, err := exp.RunAll(context.Background(), names, exp.Options{
		Quick:     true,
		Workers:   1,
		WarmStart: warm,
		Progress: func(ev exp.Event) {
			if ev.Kind != exp.EventFinished {
				return
			}
			now := time.Now()
			tr.record("exp."+ev.Name, root.id, req, now.Add(-ev.Elapsed), now)
			mu.Lock()
			run.perExp[ev.Name] = ev.Elapsed
			mu.Unlock()
		},
	})
	run.elapsed = time.Since(start)
	root.end()
	if err != nil {
		run.failed++
		run.errs = append(run.errs, err)
	}
	for _, r := range results {
		if r.Name == "" {
			continue // did not run; RunAll's error covers it
		}
		if err := checkGolden(golden, r); err != nil {
			run.failed++
			run.errs = append(run.errs, err)
		}
	}
	return run
}

// engineSetup loads the goldens and runs one experiment, checked.
func engineSetup() (map[string]map[string]float64, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	r, err := exp.Run(context.Background(), setupExperiment, exp.Options{Quick: true, Workers: 1, WarmStart: true})
	if err != nil {
		return nil, err
	}
	return golden, checkGolden(golden, r)
}

// runEngine is the engine-suite workload: the experiment list, again and
// again until the measured time is up. Each experiment counts as one
// request, timed by the engine's own Elapsed.
func runEngine(o opts) (*result, error) {
	r := newResult()
	hs := newHostSpeed()
	hs.probe(20)
	var golden map[string]map[string]float64
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		g, err := engineSetup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		golden = g
	}
	var suites, peaks []float64
	var lat [][]float64
	var total time.Duration
	for o.morePasses(len(suites), total, suiteRef) {
		debug.FreeOSMemory() // drop the previous suite's checkpoints before timing the next
		rss := startRSS()
		run := runSuite(suiteList, true, golden, nil)
		peaks = append(peaks, rss.stopMB())
		total += run.elapsed
		suites = append(suites, run.elapsed.Seconds())
		var exps []float64
		for _, d := range run.perExp {
			exps = append(exps, ms(d))
		}
		lat = append(lat, exps)
		r.attempted += len(suiteList)
		r.fail(run.failed, run.errs...)
		hs.probe(20)
	}
	if err := r.setEndToEnd(hs, setups, suites, peaks, lat, total); err != nil {
		return nil, err
	}
	return r, nil
}
