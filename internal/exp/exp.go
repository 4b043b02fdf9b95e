// Package exp regenerates every table and figure from the paper's evaluation
// (§6). Each experiment builds the workload, attaches the relevant profiler
// (DProf, lock-stat, or OProfile), runs the simulation, and renders output in
// the shape of the paper's table or figure; `dprof-bench -values` prints
// each experiment's measured values in machine-readable form.
//
// Experiments execute on the engine in engine.go: Run and RunAll dispatch
// any subset onto a bounded worker pool with context cancellation, streamed
// progress events, and structured errors. Every experiment constructs its
// own seeded sim.Machine, so concurrent runs are bit-identical to serial
// ones (enforced by TestRunAllParallelMatchesSerial).
package exp

import (
	"fmt"
	"strconv"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/sim"
)

// Result is one experiment's output: rendered text plus named values for
// programmatic assertions (tests and benchmarks).
type Result struct {
	Name   string
	Title  string
	Text   string
	Values map[string]float64
}

// Runner produces a Result. The RunCfg carries the quick/full switch and,
// when the engine runs with WarmStart, the memo of finished runs.
type Runner func(rc RunCfg) Result

type entry struct {
	name  string
	title string
	run   Runner
}

var registry []entry

func register(name, title string, run Runner) {
	registry = append(registry, entry{name, title, run})
}

// paperOrder fixes the listing order to follow the paper's evaluation.
var paperOrder = []string{
	"table6.1", "figure6.1", "table6.2", "table6.3", "fix-memcached",
	"table6.4", "table6.5", "table6.6", "fix-apache",
	"figure6.2", "table6.7", "table6.8", "table6.9", "figure6.3", "table6.10",
}

// Names lists all experiments in paper order (any extras appended).
func Names() []string {
	seen := make(map[string]bool, len(registry))
	for _, e := range registry {
		seen[e.name] = true
	}
	var out []string
	for _, n := range paperOrder {
		if seen[n] {
			out = append(out, n)
			seen[n] = false
		}
	}
	for _, e := range registry {
		if seen[e.name] {
			out = append(out, e.name)
		}
	}
	return out
}

// Title returns an experiment's title.
func Title(name string) string {
	for _, e := range registry {
		if e.name == name {
			return e.title
		}
	}
	return ""
}

// --- shared workload construction (registry-driven) and run windows ---

type window struct {
	warmup  uint64
	measure uint64
}

// windowFor reads a registered workload's default run windows.
func windowFor(name string, quick bool) window {
	w, err := workload.Lookup(name)
	if err != nil {
		panic(err)
	}
	ws := w.Windows(quick)
	return window{ws.Warmup, ws.Measure}
}

func memcachedWindow(quick bool) window { return windowFor("memcached", quick) }

func apacheWindow(quick bool) window { return windowFor("apache", quick) }

// build constructs a workload instance through the registry. Experiment
// workload names and options are compile-time constants, so failures panic
// (the engine reports them as RunErrors).
func build(name string, opts map[string]string) core.Runnable {
	return workload.MustBuild(name, opts)
}

func buildMemcached(fix bool) core.Runnable {
	return build("memcached", map[string]string{"fix": strconv.FormatBool(fix)})
}

// mustSession wraps core.NewSession for experiments, whose view and type
// names are constants.
func mustSession(inst core.Runnable, cfg core.SessionConfig) *core.Session {
	s, err := core.NewSession(inst, cfg)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return s
}

// seconds converts cycles to simulated seconds.
func seconds(cycles uint64) float64 { return float64(cycles) / float64(sim.Freq) }
