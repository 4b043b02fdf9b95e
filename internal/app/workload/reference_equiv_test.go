package workload_test

import (
	"bytes"
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// modeSession runs one workload at its defaults (quick fidelity) under a
// full-view profiling session, with the engine's optimized hot paths or the
// retained reference paths.
func modeSession(name string, windowCycles uint64, reference bool) (*core.Session, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	inst, err := w.Build(workload.Defaults(w).WithQuick(true))
	if err != nil {
		return nil, err
	}
	if reference {
		inst.Machine().SetReference(true)
	}
	win := w.Windows(true)
	s, err := core.NewSession(inst, core.SessionConfig{
		Profiler:     core.DefaultConfig(),
		Views:        core.KnownViews,
		TypeName:     w.DefaultTarget(),
		Warmup:       win.Warmup,
		Measure:      win.Measure,
		WindowCycles: windowCycles,
	})
	if err != nil {
		return nil, err
	}
	s.Run()
	return s, nil
}

// runModeSession is modeSession for the test goroutine: errors fail the test.
func runModeSession(t *testing.T, name string, windowCycles uint64, reference bool) *core.Session {
	t.Helper()
	s, err := modeSession(name, windowCycles, reference)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// compareSessions asserts two finished sessions exposed byte-identical view
// exports, run results, and window snapshots; la and lb label a and b in
// failure messages.
func compareSessions(t *testing.T, la, lb string, a, b *core.Session) {
	t.Helper()
	aViews := exportAllViews(t, la, a)
	bViews := exportAllViews(t, lb, b)
	for view, want := range aViews {
		got, ok := bViews[view]
		if !ok {
			t.Errorf("%s run missing %s view", lb, view)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s view differs between %s and %s runs:\n--- %s ---\n%s\n--- %s ---\n%s",
				view, la, lb, la, want, lb, got)
		}
	}
	ar, br := a.Result(), b.Result()
	if ar.Summary != br.Summary {
		t.Errorf("run summaries differ:\n%s: %s\n%s: %s", la, ar.Summary, lb, br.Summary)
	}
	for k, v := range ar.Values {
		if bv := br.Values[k]; bv != v {
			t.Errorf("run value %q differs: %s %v, %s %v", k, la, v, lb, bv)
		}
	}
	aw, bw := a.Windows(), b.Windows()
	if len(aw) != len(bw) {
		t.Fatalf("window counts differ: %s %d, %s %d", la, len(aw), lb, len(bw))
	}
	for i := range aw {
		x, y := aw[i], bw[i]
		if x.Start != y.Start || x.End != y.End || x.Final != y.Final ||
			x.Samples() != y.Samples() || x.Misses() != y.Misses() {
			t.Errorf("window %d metadata differs between %s and %s runs", i, la, lb)
		}
		for view, want := range x.Views {
			if got, ok := y.Views[view]; !ok || !bytes.Equal(want, got) {
				t.Errorf("window %d %s view differs between %s and %s runs", i, view, la, lb)
			}
		}
	}
}

// TestReferencePathEquivalence is the differential gate for the hot-path
// optimizations (MRU fast path, armed hook dispatch, bypass-slot event
// wheel): for every registered workload, the optimized engine must produce
// byte-identical profiles — every view, every window snapshot, every run
// value — to the retained reference paths, monolithic and windowed. CI runs
// this under -race.
func TestReferencePathEquivalence(t *testing.T) {
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
				opt := runModeSession(t, name, 0, false)
				ref := runModeSession(t, name, 0, true)
				compareSessions(t, "reference", "optimized", ref, opt)
			})
			t.Run("windowed", func(t *testing.T) {
				length := (win.Warmup + win.Measure) / 4
				opt := runModeSession(t, name, length, false)
				ref := runModeSession(t, name, length, true)
				compareSessions(t, "reference", "optimized", ref, opt)
				if len(opt.Windows()) < 2 {
					t.Errorf("windowed run produced %d windows, want >= 2", len(opt.Windows()))
				}
			})
		})
	}
}
