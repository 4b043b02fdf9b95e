// Case study 1 (§6.1 of the paper): find and fix true sharing in the
// memcached workload.
//
// Sixteen single-core memcached instances serve UDP GETs; the experiment is
// set up so each client's packets arrive on its instance's core — and yet
// the machine does not scale. This example walks the paper's diagnosis,
// building every machine through the workload registry and profiling
// through core.Session:
//
//  1. The data profile shows packet payloads (size-1024) taking nearly half
//     of all L1 misses, and every hot type bouncing between cores.
//  2. The skbuff data flow view pins the bounce to the qdisc transmit path:
//     packets enqueued by one core are drained by another.
//  3. The culprit is the default skb_tx_hash queue selection; installing a
//     driver-local queue selection function recovers the lost throughput
//     (+57% in the paper).
//
// Run: go run ./examples/memcached   (-quick for a tiny smoke run)
package main

import (
	"flag"
	"fmt"
	"os"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()

	warmup, measure := uint64(2_000_000), uint64(40_000_000)
	if *quick {
		warmup, measure = 1_000_000, 4_000_000
	}

	fmt.Println("--- step 1: profile the broken configuration ---")
	s, err := core.NewSession(workload.MustBuild("memcached", nil), core.SessionConfig{
		Profiler:   core.DefaultConfig(),
		TypeName:   "skbuff",
		Sets:       2,
		WatchRange: 128, // the header region is enough to see the transmit path
		Warmup:     warmup,
		Measure:    measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	stBroken := s.Run()
	fmt.Printf("throughput: %s\n\n", stBroken.Summary)
	fmt.Println(s.Profiler().DataProfile().String())

	fmt.Println("--- step 2: where do skbuffs change cores? ---")
	g := s.Profiler().DataFlow(s.Target())
	for _, e := range g.CrossCPUEdges() {
		fmt.Printf("  %s ==> %s (x%d)\n", e.From, e.To, e.Count)
	}
	fmt.Println("\nThe hop sits in the qdisc path: packets are placed on a remote")
	fmt.Println("queue by skb_tx_hash and drained by that queue's owner core.")

	fmt.Println("\n--- step 3: install the local queue selection fix ---")
	// Compare clean runs (no profiler attached) on both sides, the way the
	// paper reports its speedup.
	stClean := core.RunBare(workload.MustBuild("memcached", nil), warmup, measure)
	stFixed := core.RunBare(workload.MustBuild("memcached", map[string]string{"fix": "true"}), warmup, measure)
	fmt.Printf("default (unprofiled): %s\n", stClean.Summary)
	fmt.Printf("fixed   (unprofiled): %s\n", stFixed.Summary)
	fmt.Printf("\nimprovement: %+.0f%%  (the paper reports +57%%)\n",
		100*(stFixed.Values["throughput"]/stClean.Values["throughput"]-1))
}
