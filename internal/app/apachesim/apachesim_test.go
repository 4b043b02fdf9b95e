package apachesim

import (
	"testing"

	"dprof/internal/core"
)

// run drives b through the shared run lifecycle and reads its stats.
func run(b *Bench, warmup, measure uint64) Stats {
	core.RunBare(b, warmup, measure)
	return b.stats(measure)
}

func TestServesRequestsAtModerateLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OfferedPerCore = 40_000
	b := New(cfg)
	st := run(b, 3_000_000, 5_000_000)
	if st.Completed == 0 {
		t.Fatalf("no requests completed: %v", st)
	}
	if st.Refused != 0 {
		t.Fatalf("refusals at moderate load: %v", st)
	}
}

func TestBacklogBuildsUnderOverload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OfferedPerCore = DropOffOffered
	b := New(cfg)
	run(b, 10_000_000, 6_000_000)
	depth := 0
	for i := 0; i < b.M.NumCores(); i++ {
		depth += b.Listener(i).QueueLen()
	}
	if depth < b.M.NumCores()*cfg.Backlog/2 {
		t.Fatalf("backlog depth %d; overload should pin queues near the limit (%d x %d)",
			depth, b.M.NumCores(), cfg.Backlog)
	}
}

func TestThroughputDropsPastPeak(t *testing.T) {
	peak := New(DefaultConfig()) // default offered = PeakOffered
	stPeak := run(peak, 10_000_000, 8_000_000)

	over := DefaultConfig()
	over.OfferedPerCore = DropOffOffered
	drop := New(over)
	stDrop := run(drop, 10_000_000, 8_000_000)

	t.Logf("peak: %v", stPeak)
	t.Logf("drop: %v", stDrop)
	if stDrop.Throughput >= stPeak.Throughput {
		t.Fatalf("offered %d should drop below peak throughput: %.0f >= %.0f",
			DropOffOffered, stDrop.Throughput, stPeak.Throughput)
	}
	if stDrop.AvgQueueDelay < 50*stPeak.AvgQueueDelay {
		t.Fatalf("queue delay should explode at drop-off: %.0f vs %.0f",
			stDrop.AvgQueueDelay, stPeak.AvgQueueDelay)
	}
}

func TestAdmissionControlFixImprovesOverloadThroughput(t *testing.T) {
	deep := DefaultConfig()
	deep.OfferedPerCore = DropOffOffered
	stDeep := run(New(deep), 10_000_000, 8_000_000)

	capped := DefaultConfig()
	capped.OfferedPerCore = DropOffOffered
	capped.Backlog = FixedBacklog
	stCapped := run(New(capped), 10_000_000, 8_000_000)

	speedup := stCapped.Throughput / stDeep.Throughput
	t.Logf("deep: %v", stDeep)
	t.Logf("capped: %v (%.2fx)", stCapped, speedup)
	if speedup < 1.05 {
		t.Fatalf("admission control speedup = %.2fx, want >= 1.05x (paper: 1.16x)", speedup)
	}
	if stCapped.Refused == 0 {
		t.Fatal("admission control should refuse connections")
	}
}

func TestTcpSockWorkingSetGrowsAtDropOff(t *testing.T) {
	peak := New(DefaultConfig())
	run(peak, 10_000_000, 6_000_000)
	peakBytes := peak.K.Alloc.StatsFor(peak.K.TCPSockType).PeakBytes

	over := DefaultConfig()
	over.OfferedPerCore = DropOffOffered
	drop := New(over)
	run(drop, 10_000_000, 6_000_000)
	dropBytes := drop.K.Alloc.StatsFor(drop.K.TCPSockType).PeakBytes

	t.Logf("tcp_sock peak bytes: peak=%d drop=%d (%.1fx)", peakBytes, dropBytes,
		float64(dropBytes)/float64(peakBytes))
	if dropBytes < 4*peakBytes {
		t.Fatalf("tcp_sock working set should balloon at drop-off (paper: ~10x): %.1fx",
			float64(dropBytes)/float64(peakBytes))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := run(New(DefaultConfig()), 3_000_000, 3_000_000)
	b := run(New(DefaultConfig()), 3_000_000, 3_000_000)
	if a.Completed != b.Completed || a.Refused != b.Refused {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backlog = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero backlog accepted")
		}
	}()
	New(cfg)
}
