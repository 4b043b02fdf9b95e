package exp

import (
	"context"
	"reflect"
	"testing"

	"dprof/internal/core"
)

// warmNames exercises every warm-pool sharing pattern: a memoized profiled
// session (table6.1 and ext-oracle share a full configuration), a memoized
// bare run (table6.2 and fix-memcached's default side), warm-key forks with
// distinct option sets (the scenario experiments), and an experiment that
// must stay cold (table6.3 attaches OProfile outside the session plumbing).
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

// TestWarmPoolShares verifies the pool actually shares: running the memo
// pairs warm must materialize fewer checkpoint entries than experiments, and
// at least one checkpoint must serve more than one measured phase or read.
func TestWarmPoolShares(t *testing.T) {
	pool := core.NewCheckpointPool(enginePoolBytes)
	rc := RunCfg{Quick: true, warm: pool}
	for _, name := range []string{"table6.1", "ext-oracle", "table6.2", "fix-memcached"} {
		e, ok := lookup(name)
		if !ok {
			t.Fatalf("unknown experiment %s", name)
		}
		e.run(rc)
	}
	st := pool.Stats()
	// table6.1+ext-oracle share one session entry; table6.2 and
	// fix-memcached's default side share one bare entry; fix-memcached's
	// fixed side is its own. Three warm entries for four experiments.
	if st.Entries != 3 {
		t.Errorf("pool entries = %d, want 3 (memo pairs must share)", st.Entries)
	}
	// Each checkpoint ran its measured phase exactly once: the second user
	// of each shared entry was served from the memo, not a re-run.
	if st.Forks != 3 {
		t.Errorf("pool forks = %d, want 3 (identical configs must be memoized)", st.Forks)
	}
	if st.Bytes == 0 {
		t.Error("pool reports zero checkpoint bytes")
	}
}
