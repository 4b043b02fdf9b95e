// Command dprof-bench regenerates the paper's tables and figures on the
// simulated machine.
//
// Usage:
//
//	dprof-bench -experiment all                    # everything, paper order
//	dprof-bench -experiment all -parallel 0        # ... on all cores
//	dprof-bench -experiment table6.1               # one table
//	dprof-bench -experiment table6.1,table6.2      # a subset
//	dprof-bench -experiment figure6.2 -quick
//	dprof-bench -list
//
// Output is printed in the shape of the corresponding paper table/figure, in
// request order regardless of -parallel; per-experiment progress streams to
// stderr as experiments start and finish. -values adds each experiment's
// measured values in machine-readable form, for comparison with the paper's
// numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"dprof/internal/exp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dprof-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "", "experiment name, comma list, or 'all'")
		quick      = fs.Bool("quick", false, "smaller workloads and fewer samples")
		list       = fs.Bool("list", false, "list available experiments")
		values     = fs.Bool("values", false, "also print machine-readable values")
		parallel   = fs.Int("parallel", 1, "experiments to run concurrently (0 = all cores)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprint(stdout, exp.Titles())
		return 0
	}
	if *experiment == "" {
		fmt.Fprintln(stderr, "usage: dprof-bench -experiment <name>[,<name>...]|all [-quick] [-values] [-parallel n] (or -list)")
		return 2
	}

	names, ok := exp.ParseNames(*experiment)
	if !ok {
		fmt.Fprintf(stderr, "dprof-bench: no experiment names in %q\n", *experiment)
		return 2
	}

	results, err := exp.RunAll(ctx, names, exp.Options{
		Quick:     *quick,
		Workers:   *parallel,
		WarmStart: true,
		Progress: func(ev exp.Event) {
			switch ev.Kind {
			case exp.EventStarted:
				fmt.Fprintf(stderr, "[%d/%d] %s: running...\n", ev.Index+1, ev.Total, ev.Name)
			case exp.EventFinished:
				fmt.Fprintf(stderr, "[%d/%d] %s: done in %v\n", ev.Index+1, ev.Total, ev.Name, ev.Elapsed.Round(1e6))
			case exp.EventFailed:
				fmt.Fprintf(stderr, "[%d/%d] %s: FAILED: %v\n", ev.Index+1, ev.Total, ev.Name, ev.Err)
			}
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	exp.WriteResults(stdout, results, *values)
	return 0
}
