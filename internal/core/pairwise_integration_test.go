package core_test

import (
	"testing"

	"dprof/internal/app/apachesim"
	"dprof/internal/app/memcachedsim"
	"dprof/internal/core"
	"dprof/internal/sim"
)

// TestPairwiseOnMemcached exercises the full §5.3 pairwise pipeline against
// the real workload: sample to find hot offsets, collect pair histories, and
// confirm the pairs carry elements from both offsets and feed path traces.
func TestPairwiseOnMemcached(t *testing.T) {
	b := memcachedsim.New(memcachedsim.DefaultConfig())
	p := core.Attach(b.M, b.K.Alloc, core.DefaultConfig())
	p.Collector.WatchLen = 8
	p.StartSampling()
	core.Prime(b, sim.Unbounded)
	b.M.Run(5_000_000) // sampling warm-up so hot offsets exist

	skb := b.K.SkbType
	p.Sync()
	offsets := p.Samples.HotOffsets(p.Desc(skb), 8, 4)
	if len(offsets) < 2 {
		t.Fatalf("hot offsets = %v; sampling should find several", offsets)
	}
	p.CollectPairwise(skb, offsets, 1, 4)
	for t0 := uint64(10_000_000); t0 <= 400_000_000 && p.Collector.Pending() > 0; t0 += 10_000_000 {
		b.M.Run(t0)
	}
	hs := p.Collector.Histories(skb)
	if len(hs) == 0 {
		t.Fatal("no pairwise histories collected")
	}
	var pairs, withBoth int
	for _, h := range hs {
		if len(h.Offsets) != 2 {
			continue
		}
		pairs++
		seen := map[uint32]bool{}
		for _, e := range h.Elems {
			seen[e.Offset-(e.Offset%8)] = true
		}
		if len(seen) >= 2 {
			withBoth++
		}
	}
	if pairs == 0 {
		t.Fatal("no pair histories among the collected set")
	}
	t.Logf("collected %d histories (%d pairs, %d observed both offsets)", len(hs), pairs, withBoth)

	traces := core.BuildPathTraces(p.Desc(skb), hs, p.Samples)
	if len(traces) == 0 {
		t.Fatal("pairwise histories produced no path traces")
	}
}

// TestApacheTcpSockHistories checks the Apache (flow-consistent-queue) side:
// tcp_sock objects live and die on one core, so their histories — unlike
// memcached's skbuffs — should be overwhelmingly single-CPU.
func TestApacheTcpSockHistories(t *testing.T) {
	cfg := apachesim.DefaultConfig()
	b := apachesim.New(cfg)
	p := core.Attach(b.M, b.K.Alloc, core.DefaultConfig())
	p.Collector.WatchLen = 8
	p.StartSampling()
	p.Collector.MaxLifetime = 2_000_000
	p.Collector.AddSingleTargetsRange(b.K.TCPSockType, 0, 64, 2)
	p.Collector.Start()
	core.Prime(b, 600_000_000)
	for t0 := uint64(10_000_000); t0 <= 600_000_000 && p.Collector.Pending() > 0; t0 += 10_000_000 {
		b.M.Run(t0)
	}
	hs := p.Collector.Histories(b.K.TCPSockType)
	if len(hs) == 0 {
		t.Fatal("no tcp_sock histories collected")
	}
	cross := 0
	for _, h := range hs {
		if h.CrossCPU() {
			cross++
		}
	}
	t.Logf("%d histories, %d cross-CPU", len(hs), cross)
	if cross*2 > len(hs) {
		t.Fatalf("tcp_sock bounced in %d/%d histories; the Apache study runs core-local", cross, len(hs))
	}
}
