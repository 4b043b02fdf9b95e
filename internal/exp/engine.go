package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures an engine run.
type Options struct {
	// Quick trades precision for speed (smaller warm-up and measurement
	// windows); it is what the test suite uses.
	Quick bool
	// Workers bounds how many experiments run concurrently. Zero or negative
	// means GOMAXPROCS. Every experiment constructs its own seeded machine,
	// so results are identical at any worker count.
	Workers int
	// WarmStart shares finished runs across the experiments of this run:
	// a run whose full configuration (workload, options, profiler and
	// session settings, warmup and measured lengths) already ran is read
	// from that run's finished state instead of simulating again. A
	// finished run is kept only until the last experiment of this run
	// that shares it has read it (memoShares in warm.go), so a single
	// experiment gains nothing. Results are byte-identical to unshared
	// runs at any worker count.
	WarmStart bool
	// Progress, if non-nil, receives one Event when an experiment starts and
	// one when it finishes or fails. Delivery never blocks experiment
	// execution: events flow through a buffer sized for the whole run and a
	// single delivery goroutine invokes the callback, so calls are
	// serialized but may lag the experiments (a stalled consumer — e.g. a
	// dead SSE client — costs nothing but delayed events). RunAll flushes
	// every pending event before returning as long as the callback keeps
	// returning; if the callback is blocked when the run completes, RunAll
	// waits only until the context ends, then returns and abandons the
	// undelivered events (the delivery goroutine exits once the callback
	// comes back).
	Progress func(Event)
}

// EventKind classifies an engine progress event.
type EventKind int

const (
	// EventStarted is emitted when an experiment begins executing.
	EventStarted EventKind = iota
	// EventFinished is emitted when an experiment completes successfully.
	EventFinished
	// EventFailed is emitted when an experiment panics or is cancelled.
	EventFailed
)

// Event is one progress notification from RunAll.
type Event struct {
	Kind    EventKind
	Name    string
	Title   string
	Index   int // position within the requested set
	Total   int // size of the requested set
	Elapsed time.Duration
	Err     error // set on EventFailed
}

// UnknownError reports a request for an experiment that does not exist. It
// carries the valid set so callers can print it.
type UnknownError struct {
	Name  string
	Known []string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("exp: unknown experiment %q (known: %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// RunError wraps a failure inside one experiment (a panic in the experiment
// body, or cancellation before it could run).
type RunError struct {
	Name string
	Err  error
}

func (e *RunError) Error() string { return fmt.Sprintf("exp: %s: %v", e.Name, e.Err) }

// Unwrap exposes the underlying cause (e.g. context.Canceled).
func (e *RunError) Unwrap() error { return e.Err }

// Run executes one experiment by name.
func Run(ctx context.Context, name string, opts Options) (Result, error) {
	rs, err := RunAll(ctx, []string{name}, opts)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunAll executes the named experiments (all registered ones if names is
// empty) on a bounded worker pool and returns their results in request
// order. Each experiment builds its own deterministic simulated machine, so
// the results are bit-identical to a serial run regardless of Workers.
//
// The context cancels dispatch: experiments not yet started are abandoned
// and reported as RunError wrapping the context's error. Experiments already
// running are allowed to finish (the simulation loop is not interruptible).
// The first failure is returned; results of experiments that completed are
// still filled in.
func RunAll(ctx context.Context, names []string, opts Options) ([]Result, error) {
	results, _, err := runAll(ctx, names, opts)
	return results, err
}

// runAll is RunAll that also returns its run memo (nil without WarmStart),
// so tests can read the memo's census of shared runs.
func runAll(ctx context.Context, names []string, opts Options) ([]Result, *runMemo, error) {
	if len(names) == 0 {
		names = Names()
	}
	runners := make([]entry, len(names))
	for i, n := range names {
		e, ok := lookup(n)
		if !ok {
			return nil, nil, &UnknownError{Name: n, Known: Names()}
		}
		runners[i] = e
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(runners) {
		workers = len(runners)
	}

	var (
		results = make([]Result, len(runners))
		errs    = make([]error, len(runners))
		wg      sync.WaitGroup
		next    = make(chan int)
	)

	// Progress events are delivered by a dedicated goroutine reading from a
	// buffered channel, so a slow or blocked consumer can never stall a
	// worker. A run emits at most two events per experiment (started plus
	// one terminal), so a 2n buffer makes emit lossless and non-blocking by
	// construction.
	var events chan Event
	var abandoned atomic.Bool
	drained := make(chan struct{})
	if opts.Progress != nil {
		events = make(chan Event, 2*len(runners))
		go func() {
			defer close(drained)
			for ev := range events {
				if abandoned.Load() {
					continue // context ended mid-flush: discard, don't deliver late
				}
				opts.Progress(ev)
			}
		}()
	} else {
		close(drained)
	}
	emit := func(ev Event) {
		if events == nil {
			return
		}
		select {
		case events <- ev:
		default:
			// Unreachable while the buffer invariant above holds; dropping
			// beats blocking a worker if it is ever broken.
		}
	}

	var memo *runMemo
	if opts.WarmStart {
		memo = newRunMemo(names)
	}

	runOne := func(i int) {
		e := runners[i]
		start := time.Now()
		emit(Event{Kind: EventStarted, Name: e.name, Title: e.title, Index: i, Total: len(runners)})
		defer func() {
			if p := recover(); p != nil {
				err := &RunError{Name: e.name, Err: fmt.Errorf("panic: %v", p)}
				errs[i] = err
				emit(Event{Kind: EventFailed, Name: e.name, Title: e.title, Index: i,
					Total: len(runners), Elapsed: time.Since(start), Err: err})
			}
		}()
		// The memo drops the runs no later experiment reads before the
		// finished event goes out, whether the body returned or panicked.
		r := func() Result {
			defer memo.finish(e.name)
			return e.run(RunCfg{Quick: opts.Quick, name: e.name, memo: memo})
		}()
		r.Name = e.name
		r.Title = e.title
		results[i] = r
		emit(Event{Kind: EventFinished, Name: e.name, Title: e.title, Index: i,
			Total: len(runners), Elapsed: time.Since(start)})
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				runOne(i)
			}
		}()
	}

dispatch:
	for i := range runners {
		// Check cancellation before offering work: a bare select would pick
		// randomly between a ready worker and a Done context.
		if ctx.Err() != nil {
			for j := i; j < len(runners); j++ {
				errs[j] = &RunError{Name: runners[j].name, Err: ctx.Err()}
			}
			break dispatch
		}
		select {
		case next <- i:
		case <-ctx.Done():
			// Index i was not handed to any worker (the select chose Done),
			// so slots i.. will never run; mark them cancelled.
			for j := i; j < len(runners); j++ {
				errs[j] = &RunError{Name: runners[j].name, Err: ctx.Err()}
			}
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if events != nil {
		// Flush: every event is already buffered, so a live consumer drains
		// in bounded time. A consumer stuck inside the callback would block
		// this forever — the context is the escape hatch, after which
		// undelivered events are discarded rather than delivered late (at
		// most the one callback already in flight can still be executing
		// when RunAll returns).
		close(events)
		select {
		case <-drained:
			// Fast path first: a consumer that already drained must win even
			// when the context is also done, so a cancelled-but-complete run
			// still delivers its terminal events.
		default:
			select {
			case <-drained:
			case <-ctx.Done():
				abandoned.Store(true)
			}
		}
	}

	for _, err := range errs {
		if err != nil {
			return results, memo, err
		}
	}
	return results, memo, nil
}

// ParseNames parses a CLI experiment argument: "all" means the full registry
// (nil names), otherwise a comma-separated list. ok is false when the
// argument contains no names at all (e.g. ",") — silently running everything
// on a typo would be hostile.
func ParseNames(arg string) (names []string, ok bool) {
	if arg == "all" {
		return nil, true
	}
	for _, n := range strings.Split(arg, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, len(names) > 0
}

// WriteResults renders results in request order, one paper-shaped block per
// experiment, optionally followed by the machine-readable values.
func WriteResults(w io.Writer, results []Result, values bool) {
	for _, r := range results {
		fmt.Fprintf(w, "=== %s — %s\n", r.Name, r.Title)
		fmt.Fprintln(w, strings.TrimRight(r.Text, "\n"))
		if values {
			fmt.Fprint(w, RenderValues(r))
		}
		fmt.Fprintln(w)
	}
}

// lookup finds a registered experiment by name.
func lookup(name string) (entry, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return entry{}, false
}

// Titles returns the registered experiments in paper order with titles,
// rendered one per line (the -list output of dprof-bench).
func Titles() string {
	var b strings.Builder
	for _, n := range Names() {
		fmt.Fprintf(&b, "%-14s %s\n", n, Title(n))
	}
	return b.String()
}

// sortedKeys renders a Values map deterministically (for logs).
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RenderValues pretty-prints the named values of a result.
func RenderValues(r Result) string {
	var b strings.Builder
	for _, k := range sortedKeys(r.Values) {
		fmt.Fprintf(&b, "  %-36s %14.4f\n", k, r.Values[k])
	}
	return b.String()
}
