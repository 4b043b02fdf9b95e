package core_test

import (
	"strings"
	"testing"

	"dprof/internal/app/memcachedsim"
	"dprof/internal/core"
)

// TestMemcachedDataProfile runs DProf on the memcached case study and checks
// the Table 6.1 shape: packet payload tops the miss ranking and the hot
// kernel types bounce between cores.
func TestMemcachedDataProfile(t *testing.T) {
	b := memcachedsim.New(memcachedsim.DefaultConfig())
	p := core.Attach(b.M, b.K.Alloc, core.DefaultConfig())
	p.StartSampling()
	core.RunBare(b, 1_000_000, 10_000_000)

	dp := p.DataProfile()
	if len(dp.Rows) == 0 {
		t.Fatal("empty data profile")
	}
	t.Logf("\n%s", dp.String())
	if got := dp.Rows[0].Type.Name; got != "size-1024" {
		t.Errorf("top miss type = %s, want size-1024 (Table 6.1)", got)
	}
	byName := map[string]core.DataProfileRow{}
	for _, r := range dp.Rows {
		byName[r.Type.Name] = r
	}
	for _, name := range []string{"size-1024", "skbuff", "slab", "array_cache", "net_device", "udp_sock"} {
		row, ok := byName[name]
		if !ok {
			t.Errorf("type %s missing from data profile", name)
			continue
		}
		if !row.Bounce {
			t.Errorf("type %s should bounce in the default configuration", name)
		}
	}
}

// TestMemcachedDataFlow collects skbuff histories and checks the Figure 6-1
// shape: a cross-CPU hop between pfifo_fast_enqueue and pfifo_fast_dequeue.
func TestMemcachedDataFlow(t *testing.T) {
	b := memcachedsim.New(memcachedsim.DefaultConfig())
	cfg := core.DefaultConfig()
	p := core.Attach(b.M, b.K.Alloc, cfg)
	p.StartSampling()
	p.Collector.WatchLen = 8
	p.CollectHistories(2, b.K.SkbType)
	core.RunBare(b, 1_000_000, 60_000_000)

	hs := p.Collector.Histories(b.K.SkbType)
	if len(hs) == 0 {
		t.Fatal("no skbuff histories collected")
	}
	t.Logf("collected %d histories (%d pending targets)", len(hs), p.Collector.Pending())

	traces := p.PathTraces(p.Desc(b.K.SkbType))
	if len(traces) == 0 {
		t.Fatal("no path traces built")
	}
	t.Logf("\n%s", traces[0].String())

	g := p.DataFlow(p.Desc(b.K.SkbType))
	rendered := g.Render()
	t.Logf("\n%s", rendered)
	edges := g.CrossCPUEdges()
	if len(edges) == 0 {
		t.Fatal("no cross-CPU edges in skbuff data flow; expected the qdisc hop")
	}
	var hit bool
	for _, e := range edges {
		t.Logf("cross-CPU edge: %s -> %s (x%d)", e.From, e.To, e.Count)
		if strings.Contains(e.To, "pfifo_fast_dequeue") || strings.Contains(e.To, "dev_hard_start_xmit") ||
			strings.Contains(e.To, "ixgbe_clean_tx_irq") || strings.Contains(e.To, "kmem_cache_free") {
			hit = true
		}
	}
	if !hit {
		t.Error("expected a cross-CPU hop into the TX drain path (Figure 6-1)")
	}
}
