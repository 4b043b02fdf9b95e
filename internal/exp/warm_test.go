package exp

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dprof/internal/core"
)

// warmNames exercises every memo pattern: a shared profiled session
// (table6.1 and ext-oracle share a full configuration), a shared bare run
// (table6.2 and fix-memcached's default side), distinct option sets that
// must not share (the scenario experiments), and an experiment that runs
// outside the memo (table6.3 attaches OProfile outside the session
// plumbing).
var warmNames = []string{"table6.1", "ext-oracle", "table6.2", "fix-memcached", "table6.3", "falseshare"}

// TestWarmStartMatchesCold is the engine half of the warm-start correctness
// bar: a WarmStart run must produce byte-identical Text and bit-identical
// Values to a cold run, serial or parallel.
func TestWarmStartMatchesCold(t *testing.T) {
	cold, err := RunAll(context.Background(), warmNames, Options{Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, len(warmNames)} {
		warm, err := RunAll(context.Background(), warmNames, Options{Quick: true, Workers: workers, WarmStart: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			c, w := cold[i], warm[i]
			if c.Text != w.Text {
				t.Errorf("workers=%d %s: warm Text differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s",
					workers, c.Name, c.Text, w.Text)
			}
			if !reflect.DeepEqual(c.Values, w.Values) {
				t.Errorf("workers=%d %s: warm Values differ from cold:\ncold: %v\nwarm: %v",
					workers, c.Name, c.Values, w.Values)
			}
		}
	}
}

// TestRunMemo checks the engine's memo of finished runs: experiments that
// run one full configuration share one entry, a run that panics is never
// kept, and concurrent callers of one key run it once. Run under -race.
func TestRunMemo(t *testing.T) {
	t.Run("shares", func(t *testing.T) {
		rc := RunCfg{Quick: true, memo: newRunMemo()}
		for _, name := range []string{"table6.1", "ext-oracle", "table6.2", "fix-memcached"} {
			e, ok := lookup(name)
			if !ok {
				t.Fatalf("unknown experiment %s", name)
			}
			e.run(rc)
		}
		// table6.1 and ext-oracle share one session run; table6.2 and
		// fix-memcached's default side share one bare run; fix-memcached's
		// fixed side is its own. Three runs for four experiments.
		if n := len(rc.memo.entries); n != 3 {
			t.Errorf("memo entries = %d, want 3 (identical configurations must share)", n)
		}
	})

	t.Run("panic", func(t *testing.T) {
		cold, err := Run(context.Background(), "table6.1", Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		rc := RunCfg{Quick: true, memo: newRunMemo()}
		opts := memcachedOpts(false)
		w := memcachedWindow(true)
		scfg := core.SessionConfig{Profiler: core.DefaultConfig(), Warmup: w.warmup, Measure: w.measure}
		key := sessionKey("memcached", opts, scfg) // table6.1's session
		// The first caller's run panics at its first window boundary,
		// leaving its machine mid-run.
		mid := scfg
		mid.WindowCycles = w.measure / 4
		mid.OnWindow = func(*core.WindowSnapshot) { panic("mid-run") }
		func() {
			defer func() {
				if recover() == nil {
					t.Error("the panicking run returned")
				}
			}()
			rc.memo.do(key, func() *finishedRun {
				s := mustSession(build("memcached", opts), mid)
				return &finishedRun{s: s, res: s.Run()}
			}, func(*finishedRun) { t.Error("read a run that panicked") })
		}()
		if rc.memo.entries[key].run != nil {
			t.Fatal("the memo kept a run that panicked")
		}
		e, _ := lookup("table6.1")
		got := e.run(rc)
		if got.Text != cold.Text || !reflect.DeepEqual(got.Values, cold.Values) {
			t.Errorf("rerun after a panic differs from a cold run:\n--- cold ---\n%s\n--- rerun ---\n%s", cold.Text, got.Text)
		}
		if n := len(rc.memo.entries); n != 1 || rc.memo.entries[key].run == nil {
			t.Errorf("memo holds %d entries after the rerun, want 1 finished run under table6.1's key", n)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const callers = 4
		rc := RunCfg{Quick: true, memo: newRunMemo()}
		w := windowFor("falseshare", true)
		var runs atomic.Int32
		var wg sync.WaitGroup
		now := make([]uint64, callers)
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rc.memo.do("falseshare", func() *finishedRun {
					runs.Add(1)
					inst := build("falseshare", nil)
					return &finishedRun{inst: inst, res: core.RunBare(inst, w.warmup, w.measure)}
				}, func(r *finishedRun) { now[i] = r.inst.Machine().Now() })
			}()
		}
		wg.Wait()
		if n := runs.Load(); n != 1 {
			t.Errorf("%d concurrent callers of one key ran it %d times, want once", callers, n)
		}
		for i := range now {
			if now[i] == 0 || now[i] != now[0] {
				t.Errorf("caller %d read clock %d, caller 0 read %d", i, now[i], now[0])
			}
		}
	})
}
