// Associativity conflicts: DProf's working set view finds overloaded cache
// sets (§4.2-4.3 of the paper).
//
// A buffer pool is laid out at a stride equal to the L1's set period, so
// every buffer maps to the same associativity set: a 2-way L1 thrashes with
// just three hot buffers, even though the cache is nearly empty. DProf's
// working set replay shows a handful of massively overloaded sets and
// attributes them to the buffer type; the miss classification calls the
// misses conflicts, not capacity. "Coloring" the pool (a stride that is not
// a multiple of the set period) spreads the buffers and removes the misses.
//
// The workload itself lives in internal/app/scenarios and is registered as
// "conflict"; this example builds it in both layouts through the registry
// and drives each under a core.Session.
//
// Run: go run ./examples/conflict   (-quick for a tiny smoke run)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

func profile(colored, quick bool, label string) {
	w, err := workload.Lookup("conflict")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	win := w.Windows(quick)
	inst := workload.MustBuild("conflict", map[string]string{"colored": strconv.FormatBool(colored)})
	s, err := core.NewSession(inst, core.SessionConfig{
		Profiler: core.Config{SampleRate: 200_000},
		Warmup:   win.Warmup,
		Measure:  win.Measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := s.Run()

	ws := s.Profiler().WorkingSet()
	fmt.Printf("--- %s ---\n%s\n", label, res.Summary)
	fmt.Printf("mean lines/set %.2f, overloaded sets: %d\n", ws.MeanLines, len(ws.Overloaded))
	for i, set := range ws.Overloaded {
		if i == 3 {
			break
		}
		fmt.Printf("  set %d holds %d distinct lines (ways=%d): %v\n",
			set.Index, set.DistinctLines, ws.Ways, set.ByType)
	}
	fmt.Println(core.RenderMissClassification(s.Profiler().MissClassification()))
}

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()

	// Aligned: every buffer lands in the same set (the L1's set period is
	// computed from the machine's real geometry by the workload).
	profile(false, *quick, "aligned pool (pathological)")

	// Colored: a stride off the set period spreads the sets.
	profile(true, *quick, "colored pool (fixed)")
}
