// False sharing: DProf's miss classification separates false sharing from
// true sharing (§4.3 of the paper).
//
// Sixteen-byte per-core statistics counters are packed four to a cache line.
// Each core only ever touches its own counter — there is no logical sharing
// at all — yet every write invalidates three other cores' lines. DProf's
// path traces show objects with heavy invalidation misses but *no*
// cross-CPU writes to the same object: the signature of false sharing.
// Padding each counter to its own line removes the misses.
//
// The workload itself lives in internal/app/scenarios and is registered as
// "falseshare"; this example is a thin wrapper that builds it in both
// layouts through the registry and drives each under a core.Session.
//
// Run: go run ./examples/falseshare   (-quick for a tiny smoke run)
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

func profile(padded, quick bool) (core.RunResult, *core.Profiler) {
	w, err := workload.Lookup("falseshare")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	win := w.Windows(quick)
	inst := workload.MustBuild("falseshare", map[string]string{"padded": strconv.FormatBool(padded)})
	s, err := core.NewSession(inst, core.SessionConfig{
		Profiler:    core.Config{SampleRate: 100_000},
		TypeName:    "pkt_stat",
		Sets:        1,
		MaxLifetime: (win.Warmup + win.Measure) / 2, // the counters live forever; truncate so traces exist
		Warmup:      win.Warmup,
		Measure:     win.Measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return s.Run(), s.Profiler()
}

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()

	fmt.Println("--- packed counters (16-byte alignment: 4 per cache line) ---")
	packed, pp := profile(false, *quick)
	fmt.Println(packed.Summary)
	fmt.Println(core.RenderMissClassification(pp.MissClassification()))

	fmt.Println("--- padded counters (64-byte alignment: one per line) ---")
	padded, dp := profile(true, *quick)
	fmt.Println(padded.Summary)
	fmt.Println(core.RenderMissClassification(dp.MissClassification()))

	fmt.Printf("throughput: packed %.0f/s, padded %.0f/s (%.1fx faster)\n",
		packed.Values["throughput"], padded.Values["throughput"],
		padded.Values["throughput"]/packed.Values["throughput"])
	fmt.Println("\nThe packed layout shows pkt_stat misses classified as false sharing —")
	fmt.Println("invalidation misses without any cross-CPU write to the same object.")
}
