package memcachedsim

import (
	"testing"

	"dprof/internal/core"
	"dprof/internal/sim"
)

// run drives b through the shared run lifecycle and reads its stats.
func run(b *Bench, warmup, measure uint64) Stats {
	core.RunBare(b, warmup, measure)
	return b.stats(measure)
}

func quickCfg() Config {
	cfg := DefaultConfig()
	return cfg
}

func TestWorkloadCompletesRequests(t *testing.T) {
	b := New(quickCfg())
	st := run(b, 1_000_000, 4_000_000)
	if st.Completed == 0 {
		t.Fatalf("no requests completed: %+v", st)
	}
	for core, n := range st.PerCore {
		if n == 0 {
			t.Errorf("core %d completed no requests", core)
		}
	}
	t.Logf("default: %v", st)
}

func TestLocalQueueFixImprovesThroughput(t *testing.T) {
	base := quickCfg()
	bDefault := New(base)
	stDefault := run(bDefault, 1_000_000, 6_000_000)

	fixed := quickCfg()
	fixed.Kern.LocalTxQueue = true
	bFixed := New(fixed)
	stFixed := run(bFixed, 1_000_000, 6_000_000)

	t.Logf("default: %v", stDefault)
	t.Logf("fixed:   %v", stFixed)
	t.Logf("speedup: %.2fx", stFixed.Throughput/stDefault.Throughput)
	if stFixed.Throughput <= stDefault.Throughput {
		t.Fatalf("local-queue fix did not improve throughput: %.0f <= %.0f",
			stFixed.Throughput, stDefault.Throughput)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := run(New(quickCfg()), 500_000, 2_000_000)
	b := run(New(quickCfg()), 500_000, 2_000_000)
	if a.Completed != b.Completed {
		t.Fatalf("same seed, different results: %d vs %d", a.Completed, b.Completed)
	}
}

func TestForeignTrafficDropsWithFix(t *testing.T) {
	base := New(quickCfg())
	run(base, 500_000, 3_000_000)
	foreignDefault := base.M.Hier.Totals().ForeignHits

	cfg := quickCfg()
	cfg.Kern.LocalTxQueue = true
	fixed := New(cfg)
	run(fixed, 500_000, 3_000_000)
	foreignFixed := fixed.M.Hier.Totals().ForeignHits

	t.Logf("foreign hits: default=%d fixed=%d", foreignDefault, foreignFixed)
	if foreignFixed*2 > foreignDefault {
		t.Fatalf("fix should cut foreign-cache transfers at least 2x: default=%d fixed=%d",
			foreignDefault, foreignFixed)
	}
}

func TestClientWindowBoundsOutstanding(t *testing.T) {
	cfg := quickCfg()
	cfg.Window = 2
	b := New(cfg)
	st := run(b, 500_000, 2_000_000)
	if st.Completed == 0 {
		t.Fatal("no completions")
	}
	// With a window of 2 per client, no instance's socket backlog can exceed
	// the outstanding window.
	for i := 0; i < b.M.NumCores(); i++ {
		if got := b.Sock(i).RxQueueLen(); got > cfg.Window {
			t.Errorf("core %d rx queue %d exceeds window %d", i, got, cfg.Window)
		}
	}
	_ = sim.Freq
}
