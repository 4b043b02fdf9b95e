package exp

import (
	"context"
	"reflect"
	"slices"
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

// runBody runs experiment name's body through m, as RunAll's worker does
// but without marking it finished.
func runBody(t *testing.T, m *runMemo, name string) Result {
	t.Helper()
	e, ok := lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	return e.run(RunCfg{Quick: true, name: name, memo: m})
}

// TestRunMemo checks the engine's memo of finished runs: experiments that
// run one full configuration share one run, an entry is dropped as soon as
// its last reader has read it, a run that panics is never kept, and
// concurrent callers of one key run it once. Run under -race.
func TestRunMemo(t *testing.T) {
	t.Run("shares", func(t *testing.T) {
		names := []string{"table6.1", "ext-oracle", "table6.2", "fix-memcached"}
		m := newRunMemo(names)
		for _, name := range names {
			runBody(t, m, name)
			m.finish(name)
		}
		// table6.1 and ext-oracle share one session run; table6.2 and
		// fix-memcached's default side share one bare run; fix-memcached's
		// fixed side is its own. Three runs for four experiments.
		if n := len(m.reads); n != 3 {
			t.Errorf("memo saw %d keys, want 3 (identical configurations must share)", n)
		}
		for key, c := range m.reads {
			if c.runs != 1 {
				t.Errorf("%s ran %d times, want once", key, c.runs)
			}
		}
	})

	t.Run("drops", func(t *testing.T) {
		names := []string{"table6.1", "figure6.1", "ext-oracle", "table6.2", "fix-memcached"}
		// Entries resident once each experiment's body returns, and again
		// once it has finished: figure6.1 shares nothing, ext-oracle is
		// table6.1's last reader, and fix-memcached reads table6.2's bare
		// run plus an unshared one of its own.
		want := []int{1, 1, 0, 1, 0}
		m := newRunMemo(names)
		resident := map[string]bool{}
		for i, name := range names {
			runBody(t, m, name)
			for key := range m.entries {
				resident[key] = true
			}
			if n := len(m.entries); n != want[i] {
				t.Errorf("after %s's reads the memo holds %d entries, want %d", name, n, want[i])
			}
			m.finish(name)
			if n := len(m.entries); n != want[i] {
				t.Errorf("after %s finished the memo holds %d entries, want %d", name, n, want[i])
			}
		}
		// A run no other experiment reads is dropped right after its read,
		// so the only keys ever left resident are the two shared ones.
		for key := range resident {
			if c := m.reads[key]; len(c.readers) != 2 {
				t.Errorf("key %s was left resident with readers %v", key, c.readers)
			}
		}
		if len(resident) != 2 {
			t.Errorf("%d keys were left resident, want the 2 shared ones", len(resident))
		}

		// A partner that is not in the RunAll never reads: table6.1's run
		// goes as soon as table6.1 has read it.
		alone := newRunMemo([]string{"table6.1"})
		runBody(t, alone, "table6.1")
		if n := len(alone.entries); n != 0 {
			t.Errorf("without ext-oracle in the list the memo kept %d entries after table6.1's read, want 0", n)
		}

		// With the partner later in the list, only the run the pair shares
		// waits for it: fix-memcached's fixed-queue run and fix-apache's
		// deep-backlog run (shared with table6.6, not in the list) go as
		// soon as they are read.
		for _, pair := range [][2]string{{"fix-memcached", "table6.2"}, {"fix-apache", "figure6.2"}} {
			m := newRunMemo(pair[:])
			runBody(t, m, pair[0])
			var kept []string
			for key := range m.entries {
				kept = append(kept, key)
			}
			if len(kept) != 1 || !slices.ContainsFunc(memoShares, func(sh memoShare) bool {
				return sortedPair(sh.readers[0], sh.readers[1]) == sortedPair(pair[0], pair[1]) && sh.shares(kept[0])
			}) {
				t.Errorf("after %s's reads, with %s still to come, the memo keeps %q, want only their shared run", pair[0], pair[1], kept)
			}
			m.finish(pair[0])
			runBody(t, m, pair[1])
			if n := len(m.entries); n != 0 {
				t.Errorf("after %s's reads the memo holds %d entries, want 0", pair[1], n)
			}
		}
	})

	t.Run("panic", func(t *testing.T) {
		cold, err := Run(context.Background(), "table6.1", Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		// ext-oracle is still to come, so table6.1's finished run is kept.
		rc := RunCfg{Quick: true, name: "table6.1", memo: newRunMemo([]string{"table6.1", "ext-oracle"})}
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
			rc.memo.do(rc.name, key, func() *finishedRun {
				s := mustSession(build("memcached", opts), mid)
				return &finishedRun{s: s, res: s.Run()}
			}, func(*finishedRun) { t.Error("read a run that panicked") })
		}()
		if rc.memo.entries[key].run != nil {
			t.Fatal("the memo kept a run that panicked")
		}
		got := runBody(t, rc.memo, "table6.1")
		if got.Text != cold.Text || !reflect.DeepEqual(got.Values, cold.Values) {
			t.Errorf("rerun after a panic differs from a cold run:\n--- cold ---\n%s\n--- rerun ---\n%s", cold.Text, got.Text)
		}
		if n := len(rc.memo.entries); n != 1 || rc.memo.entries[key].run == nil {
			t.Errorf("memo holds %d entries after the rerun, want 1 finished run under table6.1's key", n)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const callers = 4
		// Every caller reads as table6.4 while table6.5 is still to come,
		// so the entry outlives each read.
		m := newRunMemo([]string{"table6.4", "table6.5"})
		w := windowFor("falseshare", true)
		var runs atomic.Int32
		var wg sync.WaitGroup
		now := make([]uint64, callers)
		for i := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.do("table6.4", "falseshare", func() *finishedRun {
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
