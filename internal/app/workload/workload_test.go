package workload

import (
	"errors"
	"strings"
	"testing"

	"dprof/internal/core"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// fakeRunnable is a minimal core.Runnable for registry tests.
type fakeRunnable struct {
	m     *sim.Machine
	alloc *mem.Allocator
	locks *lockstat.Registry
}

func newFakeRunnable() *fakeRunnable {
	scfg := sim.DefaultConfig()
	scfg.Cores = 1
	m := sim.New(scfg)
	locks := lockstat.NewRegistry()
	return &fakeRunnable{m: m, alloc: mem.New(mem.DefaultConfig(), 1, locks), locks: locks}
}

func (f *fakeRunnable) Machine() *sim.Machine     { return f.m }
func (f *fakeRunnable) Alloc() *mem.Allocator     { return f.alloc }
func (f *fakeRunnable) Locks() *lockstat.Registry { return f.locks }
func (f *fakeRunnable) Start()                    {}
func (f *fakeRunnable) Result(uint64) core.RunResult {
	return core.RunResult{Summary: "fake"}
}

// fakeWL declares one option of each kind.
type fakeWL struct{ name string }

func (f fakeWL) Name() string        { return f.name }
func (fakeWL) Description() string   { return "test workload" }
func (fakeWL) DefaultTarget() string { return "" }
func (fakeWL) Windows(bool) Windows  { return Windows{Warmup: 1, Measure: 2} }
func (fakeWL) Options() []Option {
	return []Option{
		{Name: "flag", Kind: Bool, Default: "true", Usage: "a bool"},
		{Name: "count", Kind: Int, Default: "7", Usage: "an int"},
		{Name: "ratio", Kind: Float, Default: "1.5", Usage: "a float"},
	}
}
func (fakeWL) Build(cfg Config) (core.Runnable, error) { return newFakeRunnable(), nil }

func TestConfigDefaultsAndOverrides(t *testing.T) {
	w := fakeWL{name: "cfg-test"}
	cfg := Defaults(w)
	if !cfg.Bool("flag") || cfg.Int("count") != 7 || cfg.Float("ratio") != 1.5 {
		t.Errorf("defaults not applied: %v %v %v", cfg.Bool("flag"), cfg.Int("count"), cfg.Float("ratio"))
	}

	cfg, err := NewConfig(w, map[string]string{"flag": "false", "count": "42", "ratio": "0.25"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Bool("flag") || cfg.Int("count") != 42 || cfg.Float("ratio") != 0.25 {
		t.Errorf("overrides not applied: %v %v %v", cfg.Bool("flag"), cfg.Int("count"), cfg.Float("ratio"))
	}
}

func TestConfigRejectsUndeclaredOption(t *testing.T) {
	w := fakeWL{name: "reject-test"}
	_, err := NewConfig(w, map[string]string{"nope": "1"})
	var ue *UnknownOptionError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnknownOptionError, got %v", err)
	}
	if ue.Option != "nope" || ue.Workload != "reject-test" {
		t.Errorf("error fields = %+v", ue)
	}
	for _, want := range []string{"count", "flag", "ratio"} {
		if !strings.Contains(ue.Error(), want) {
			t.Errorf("error does not list declared option %q: %v", want, ue)
		}
	}
}

func TestConfigRejectsBadValue(t *testing.T) {
	w := fakeWL{name: "badval-test"}
	for opt, bad := range map[string]string{"flag": "maybe", "count": "1.5", "ratio": "fast"} {
		_, err := NewConfig(w, map[string]string{opt: bad})
		var be *BadValueError
		if !errors.As(err, &be) {
			t.Fatalf("option %s=%q: want *BadValueError, got %v", opt, bad, err)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	w := fakeWL{name: "lookup-test"}
	Register(w)
	t.Cleanup(func() { delete(registry, "lookup-test") })

	got, err := Lookup("lookup-test")
	if err != nil || got.Name() != "lookup-test" {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	_, err = Lookup("no-such-workload")
	var ue *UnknownWorkloadError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnknownWorkloadError, got %v", err)
	}
	if !strings.Contains(ue.Error(), "lookup-test") {
		t.Errorf("error does not list the registered set: %v", ue)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	w := fakeWL{name: "dup-test"}
	Register(w)
	t.Cleanup(func() { delete(registry, "dup-test") })
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(w)
}

func TestBuildValidatesOptions(t *testing.T) {
	Register(fakeWL{name: "build-test"})
	t.Cleanup(func() { delete(registry, "build-test") })

	if _, err := Build("build-test", map[string]string{"count": "3"}); err != nil {
		t.Fatalf("valid build failed: %v", err)
	}
	if _, err := Build("build-test", map[string]string{"bogus": "3"}); err == nil {
		t.Error("undeclared option not rejected")
	}
	if _, err := Build("missing-workload", nil); err == nil {
		t.Error("unknown workload not rejected")
	}
}
