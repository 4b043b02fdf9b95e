package workload_test

import (
	"sync"
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// TestParallelEquivalence is the concurrent-run determinism gate for the
// whole registry: independent instances of one workload simulated at the
// same time on separate goroutines must produce byte-identical profiles —
// every view, every window snapshot, every run value — to an instance run
// alone. The experiment engine's parallel workers and dprofd's concurrent
// requests both rely on instances sharing no mutable state; CI runs this
// under -race, which turns any such sharing into a failure.
func TestParallelEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			win := w.Windows(true)

			t.Run("monolithic", func(t *testing.T) {
				compareConcurrent(t, name, 0)
			})
			t.Run("windowed", func(t *testing.T) {
				compareConcurrent(t, name, (win.Warmup+win.Measure)/4)
			})
		})
	}
}

// compareConcurrent runs one session alone, then two more concurrently, and
// asserts both concurrent sessions match the lone one.
func compareConcurrent(t *testing.T, name string, windowCycles uint64) {
	t.Helper()
	alone := runModeSession(t, name, windowCycles, false)
	var together [2]*core.Session
	var errs [2]error
	var wg sync.WaitGroup
	for i := range together {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = modeSession(name, windowCycles, false)
		}()
	}
	wg.Wait()
	for i, s := range together {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		compareSessions(t, "alone", "concurrent", alone, s)
	}
}
