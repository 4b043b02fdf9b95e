package workload_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/core"
)

// requiredWorkloads is the minimum registered set: the two case studies,
// the two promoted example scenarios, and the two new contention scenarios.
var requiredWorkloads = []string{
	"memcached", "apache", "falseshare", "conflict", "trueshare", "alienping",
}

func TestRegistryHasRequiredWorkloads(t *testing.T) {
	names := workload.Names()
	for _, want := range requiredWorkloads {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("workload %q not registered (have: %s)", want, strings.Join(names, ", "))
		}
	}
	if len(names) < 6 {
		t.Errorf("registry has %d workloads, want >= 6", len(names))
	}
}

// renderAllViews builds a workload at its defaults and renders every view
// through a Session, returning the full report text followed by the JSON
// export of every view — so the byte-stability guarantee the comparison
// locks covers the API's serialized form, not just the text renderers.
func renderAllViews(t *testing.T, name string) string {
	t.Helper()
	w, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(workload.Defaults(w).WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	// Halved quick windows: determinism does not need fidelity, and every
	// workload runs twice here.
	win := w.Windows(true)
	cfg := core.SessionConfig{
		Profiler:    core.Config{SampleRate: 20_000},
		Views:       core.KnownViews,
		Sets:        1,
		MaxLifetime: (win.Warmup + win.Measure) / 2,
		LockStat:    true,
		Warmup:      win.Warmup / 2,
		Measure:     win.Measure / 2,
	}
	if target := w.DefaultTarget(); target != "" {
		cfg.TypeName = target
	}
	s, err := core.NewSession(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	report := s.Report()

	p := s.Profiler()
	var b strings.Builder
	b.WriteString(report)
	type export struct {
		name string
		v    any
	}
	exports := []export{
		{"dataprofile", p.DataProfile()},
		{"workingset", p.WorkingSet()},
		{"residency", p.CacheResidency(core.DefaultReplayObjects)},
		{"missclass", p.MissClassification()},
	}
	if tgt := s.Target(); tgt != nil {
		exports = append(exports,
			export{"pathtrace", p.PathTraces(tgt)},
			export{"dataflow", p.DataFlow(tgt)})
	}
	for _, e := range exports {
		raw, err := json.Marshal(e.v)
		if err != nil {
			t.Fatalf("%s: marshal %s: %v", name, e.name, err)
		}
		fmt.Fprintf(&b, "--- json %s ---\n%s\n", e.name, raw)
	}
	return b.String()
}

// TestRegisteredWorkloadsDeterministic extends the engine's serial-vs-
// parallel guarantee to the whole registry: every registered workload,
// profiled under every view, must produce byte-identical output across two
// runs with the same seed.
func TestRegisteredWorkloadsDeterministic(t *testing.T) {
	for _, name := range requiredWorkloads {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := renderAllViews(t, name)
			second := renderAllViews(t, name)
			if first == "" {
				t.Fatal("empty report")
			}
			if first != second {
				t.Errorf("two runs of %q differ:\n--- first ---\n%s\n--- second ---\n%s",
					name, first, second)
			}
		})
	}
}
