package workload_test

import (
	"bytes"
	"encoding/json"
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// warmDefaultSession builds the session runDefaultSession builds but stops
// at the warmup boundary with a checkpoint instead of running cold.
func warmDefaultSession(t *testing.T, name string, windowCycles uint64) (*core.Session, *core.Checkpoint) {
	t.Helper()
	w, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(workload.Defaults(w).WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	win := w.Windows(true)
	cfg := core.SessionConfig{
		Profiler:     core.DefaultConfig(),
		Views:        core.KnownViews,
		TypeName:     w.DefaultTarget(),
		Warmup:       win.Warmup,
		Measure:      win.Measure,
		WindowCycles: windowCycles,
	}
	s, err := core.NewSession(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Warmup()
	if err != nil {
		t.Fatal(err)
	}
	return s, cp
}

func diffViews(t *testing.T, label string, want, got map[string]json.RawMessage) {
	t.Helper()
	for view, w := range want {
		g, ok := got[view]
		if !ok {
			t.Errorf("%s: missing %s view", label, view)
			continue
		}
		if !bytes.Equal(w, g) {
			t.Errorf("%s: %s view differs from cold run:\n--- cold ---\n%s\n--- fork ---\n%s", label, view, w, g)
		}
	}
}

// TestWarmForkEquivalence is the warm-start correctness bar for the whole
// registry: for every workload, monolithic and windowed, a measured phase
// forked from a warmup-boundary checkpoint must export every view
// byte-identically to a cold run — on the first fork (the warmed machine
// continuing in place), on a repeat fork (restored from the snapshot), on a
// fork taken after a shorter diverging fork consumed the machine, and on
// forks after the checkpoint was parked between them.
func TestWarmForkEquivalence(t *testing.T) {
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, err := workload.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			win := w.Windows(true)
			for _, tc := range []struct {
				label  string
				window uint64
			}{
				{"monolithic", 0},
				// ~4 windows; the warmup boundary generally falls mid-window,
				// so the checkpoint carries half-open window state.
				{"windowed", (win.Warmup + win.Measure) / 4},
			} {
				cold := exportAllViews(t, name, runDefaultSession(t, name, tc.window))

				s, cp := warmDefaultSession(t, name, tc.window)
				cp.Fork(0)
				diffViews(t, tc.label+"/first-fork", cold, exportAllViews(t, name, s))

				cp.Fork(0)
				diffViews(t, tc.label+"/restored-fork", cold, exportAllViews(t, name, s))

				// Diverge with a half-length measured phase, then come back:
				// the snapshot must be untouched by the short fork.
				cp.Fork(win.Measure / 2)
				cp.Fork(0)
				diffViews(t, tc.label+"/fork-after-divergence", cold, exportAllViews(t, name, s))

				// Park between forks, as dprofd does: the hierarchy, the
				// profiler and the allocator hand their releasable arrays
				// to recyclers, and the next fork restores into arrays
				// taken back from them.
				parkAndCheck(t, tc.label, cp)
				cp.Fork(0)
				diffViews(t, tc.label+"/parked-fork", cold, exportAllViews(t, name, s))

				cp.Fork(win.Measure / 2)
				parkAndCheck(t, tc.label+"/after-divergence", cp)
				cp.Fork(0)
				diffViews(t, tc.label+"/parked-after-divergence", cold, exportAllViews(t, name, s))

				if cp.Forks() != 7 {
					t.Errorf("%s: Forks() = %d, want 7", tc.label, cp.Forks())
				}
			}
		})
	}
}

// parkAndCheck parks cp and requires the parked machine to hold no array
// that a restore rewrites in full: no dense cache array, and none of the
// profiler's or the allocator's releasable arrays, which it requires to be
// there before the park.
func parkAndCheck(t *testing.T, label string, cp *core.Checkpoint) {
	t.Helper()
	m, p, a := cp.Runnable().Machine(), cp.Session().Profiler(), cp.Runnable().Alloc()
	if p.DenseBytes() == 0 || a.DenseBytes() == 0 {
		t.Fatalf("%s: before the park, profiler holds %d and allocator %d releasable bytes, want both nonzero",
			label, p.DenseBytes(), a.DenseBytes())
	}
	cp.Park()
	if h, p, a := m.Hier.DenseBytes(), p.DenseBytes(), a.DenseBytes(); h != 0 || p != 0 || a != 0 || m.DenseBytes() != 0 {
		t.Errorf("%s: parked machine holds %d dense cache, %d profiler and %d allocator bytes, want none", label, h, p, a)
	}
}
