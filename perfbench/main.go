// Command perfbench is dprof's benchmark: the paper-experiment suite and
// dprofd serving, cold and warm, measured end to end, plus a traced run
// that breaks the time down by layer. See README.md for the workloads, the
// metrics and what each one should move.
//
//	go build -o perfbench . && ./perfbench -workload serve-warm -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the result: whether every output was
// correct, how many operations were attempted and failed, and the metrics —
// the end-to-end ones without -trace, the per-layer ones with it. The line
// before it is the full report, stamped with provenance.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"dprof/internal/benchmeta"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run's outcome.
type result struct {
	attempted int
	failed    int
	errs      []error
	metrics   map[string]metric
	samples   map[string][]float64 // the per-pass values behind a median, for the report
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, samples: map[string][]float64{}}
}

func (r *result) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records failed operations and keeps the first few reasons.
func (r *result) fail(n int, errs ...error) {
	r.failed += n
	for _, err := range errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err)
		}
	}
}

var workloads = map[string]func(opts) (*result, error){
	"engine-suite": runEngine,
	"serve-cold":   runServeCold,
	"serve-warm":   runServeWarm,
}

func main() {
	var o opts
	var secs int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "engine-suite, serve-cold or serve-warm")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: simulation seeds, perf captures, request mix and order")
	flag.IntVar(&secs, "seconds", 10, "run length: sets how many timed passes a run makes")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch stores, span files and reports")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = trace == 1

	run, ok := workloads[o.workload]
	if !ok || secs <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload engine-suite|serve-cold|serve-warm, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	if abs, err := filepath.Abs(o.workdir); err == nil {
		o.workdir = abs
	}
	if o.trace {
		run = runTraced
	}
	r, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := report(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if r.failed > 0 {
		os.Exit(1)
	}
}

// report prints the full report line and then the result line, and keeps a
// copy of the report under the work directory.
func report(o opts, r *result) error {
	for _, err := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
	prov := benchmeta.Collect()
	if prov.GitCommit == "" {
		prov.GitCommit = vcsRevision()
	}
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	full, err := json.Marshal(map[string]any{
		"benchmark":  "perfbench",
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"provenance": prov,
		"error_rate": errRate,
		"metrics":    r.metrics,
		"samples":    r.samples,
	})
	if err != nil {
		return err
	}
	dir := filepath.Join(o.workdir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", o.workload, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(dir, name), append(full, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": max(r.attempted, 1),
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, line)
	return nil
}

// vcsRevision is the commit the binary was built from, when the build
// recorded one.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// morePasses reports whether a run makes another timed pass, given how many
// it has made and the time they took. A run makes the run length over the
// time one pass takes on the reference host (2 CPUs), and at least two.
// Fixing the count by the run length rather than by how fast the host
// happens to be keeps every statistic over the same passes. A host slower
// than the reference stops early, once the passes have filled the run
// length, so a run's wall time stays bounded.
func (o opts) morePasses(done int, measured, refPass time.Duration) bool {
	return done < 2 || (done < int(o.seconds/refPass) && measured < o.seconds)
}

// setEndToEnd records the end-to-end metrics from a run's samples: set-up
// times, pass (or suite) times and peak memory per pass, and every request's
// latency, pass by pass, over the total measured time. The pass time is the
// mean, not the median: host speed drifts over seconds on the reference
// host, and a handful of passes averages that drift better than it picks a
// middle one. The p99 is the median of the passes' p99s, so one pass that a
// burst of host load stalled does not set it.
// Times are scaled to the reference host's speed (see hostspeed.go); the
// raw values go to the report.
func (r *result) setEndToEnd(hs *hostSpeed, setups, passes, peaks []float64, lat [][]float64, total time.Duration) error {
	var all, p99s []float64
	for _, l := range lat {
		all = append(all, l...)
		if len(l) > 0 {
			p99s = append(p99s, quantile(l, 0.99))
		}
	}
	if len(all) == 0 {
		return errors.New("no requests completed")
	}
	r.samples["setup_s"], r.samples["suite_s"], r.samples["peak_rss_mb"] = setups, passes, peaks
	r.samples["req_p99_ms"] = p99s
	r.set("setup_s", median(setups), "s")
	r.set("suite_s", total.Seconds()/float64(len(passes)), "s")
	r.set("req_p50_ms", median(all), "ms")
	r.set("req_p99_ms", median(p99s), "ms")
	r.set("throughput_rps", float64(len(all))/total.Seconds(), "req/s")
	r.set("peak_rss_mb", median(peaks), "MB")

	k := hs.scale()
	r.samples["kernel_ms"], r.samples["host_scale"] = hs.samples, []float64{k}
	for name, m := range r.metrics {
		r.samples["raw."+name] = []float64{m.Value}
		switch m.Unit {
		case "s", "ms":
			m.Value *= k
		case "req/s":
			m.Value /= k
		}
		r.metrics[name] = m
	}
	return nil
}
