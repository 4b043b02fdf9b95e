package workload_test

// Session helpers shared by the equivalence suites.

import (
	"bytes"
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/sim"
)

// modeSession runs one workload at its defaults (quick fidelity) under a
// full-view profiling session. With alwaysOn, a no-op always-on access hook
// is registered before the session attaches its profilers, so every core
// dispatches every access instead of skipping the ones no armed hook asked
// for.
func modeSession(name string, windowCycles uint64, alwaysOn bool) (*core.Session, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	inst, err := w.Build(workload.Defaults(w).WithQuick(true))
	if err != nil {
		return nil, err
	}
	if alwaysOn {
		inst.Machine().AddAccessHook(func(*sim.Ctx, *sim.AccessEvent) {})
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
func runModeSession(t *testing.T, name string, windowCycles uint64, alwaysOn bool) *core.Session {
	t.Helper()
	s, err := modeSession(name, windowCycles, alwaysOn)
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
