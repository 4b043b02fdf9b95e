package core_test

import (
	"errors"
	"strings"
	"testing"

	"dprof/internal/core"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// toyWorkload is a minimal two-core Runnable: core 0 allocates "msg"
// objects, writes them, and core 1 reads and frees them.
type toyWorkload struct {
	m     *sim.Machine
	alloc *mem.Allocator
	locks *lockstat.Registry

	msgType *mem.Type
	rounds  uint64
}

func newToyWorkload() *toyWorkload {
	scfg := sim.DefaultConfig()
	scfg.Cores = 2
	m := sim.New(scfg)
	locks := lockstat.NewRegistry()
	w := &toyWorkload{m: m, alloc: mem.New(mem.DefaultConfig(), 2, locks), locks: locks}
	w.msgType = w.alloc.RegisterType("msg", 64, "toy message")
	return w
}

func (w *toyWorkload) Machine() *sim.Machine     { return w.m }
func (w *toyWorkload) Alloc() *mem.Allocator     { return w.alloc }
func (w *toyWorkload) Locks() *lockstat.Registry { return w.locks }

func (w *toyWorkload) Start() {
	var produce func(c *sim.Ctx)
	produce = func(c *sim.Ctx) {
		if c.Now() >= c.M.Horizon() {
			return
		}
		addr := w.alloc.Alloc(c, w.msgType)
		func() {
			defer c.Leave(c.Enter("toy_fill"))
			c.Write(addr, 64)
		}()
		c.Spawn(1, 100, func(cc *sim.Ctx) {
			func() {
				defer cc.Leave(cc.Enter("toy_read"))
				cc.Read(addr, 64)
			}()
			w.alloc.Free(cc, addr)
			w.rounds++
			cc.Spawn(0, 100, produce)
		})
	}
	w.m.Schedule(0, 0, produce)
}

func (w *toyWorkload) Result(uint64) core.RunResult {
	return core.RunResult{
		Summary: "toy workload run",
		Values:  map[string]float64{"rounds": float64(w.rounds)},
	}
}

func TestSessionRejectsUnknownView(t *testing.T) {
	_, err := core.NewSession(newToyWorkload(), core.SessionConfig{Views: []string{"dataprofle"}})
	var ve *core.UnknownViewError
	if !errors.As(err, &ve) {
		t.Fatalf("want *UnknownViewError, got %v", err)
	}
	for _, want := range []string{"dataprofle", "dataprofile", "pathtrace"} {
		if !strings.Contains(ve.Error(), want) {
			t.Errorf("error missing %q: %v", want, ve)
		}
	}
}

func TestSessionRejectsUnknownType(t *testing.T) {
	_, err := core.NewSession(newToyWorkload(), core.SessionConfig{
		Views:    []string{"dataflow"},
		TypeName: "nonsense",
	})
	var te *core.UnknownTypeError
	if !errors.As(err, &te) {
		t.Fatalf("want *UnknownTypeError, got %v", err)
	}
	if !strings.Contains(te.Error(), "msg") {
		t.Errorf("error does not list known types: %v", te)
	}
}

func TestSessionRequiresTargetForDataflow(t *testing.T) {
	_, err := core.NewSession(newToyWorkload(), core.SessionConfig{Views: []string{"pathtrace"}})
	var te *core.UnknownTypeError
	if !errors.As(err, &te) {
		t.Fatalf("want *UnknownTypeError for missing target, got %v", err)
	}
}

func TestSessionReportRendersViewsAndBaseline(t *testing.T) {
	s, err := core.NewSession(newToyWorkload(), core.SessionConfig{
		Profiler: core.Config{SampleRate: 100_000},
		Views:    core.KnownViews,
		TypeName: "msg",
		Sets:     1,
		LockStat: true,
		Warmup:   200_000,
		Measure:  2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	for _, want := range []string{
		"toy workload run",
		"== data profile view ==",
		"== working set view ==",
		"== miss classification view ==",
		"== path traces ==",
		"== data flow view ==",
		"== lock-stat baseline ==",
		"msg",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if s.Result().Values["rounds"] == 0 {
		t.Error("workload did not run")
	}
	if s.Target() == nil || s.Target().Name != "msg" {
		t.Errorf("target = %v", s.Target())
	}
	// The session queued history collection for the target, so the data
	// flow view has real cross-CPU evidence.
	if len(s.Profiler().HistoriesFor(s.Target())) == 0 {
		t.Error("no histories collected for the dataflow target")
	}
}

func TestSessionRunTwicePanics(t *testing.T) {
	s, err := core.NewSession(newToyWorkload(), core.SessionConfig{Warmup: 1000, Measure: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	s.Run()
}
