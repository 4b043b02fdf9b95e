package memcachedsim

import (
	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

func init() { workload.Register(wl{}) }

// wl registers the memcached case study (§6.1) with the workload registry.
type wl struct{}

func (wl) Name() string { return "memcached" }

func (wl) Description() string {
	return "16 single-core memcached instances over UDP; default TX-queue hashing bounces every response (§6.1)"
}

func (wl) Options() []workload.Option {
	opts := []workload.Option{
		{Name: "fix", Kind: workload.Bool, Default: "false",
			Usage: "enable driver-local TX queue selection (the §6.1 fix, +57% in the paper)"},
		{Name: "window", Kind: workload.Int, Default: "4",
			Usage: "outstanding requests per closed-loop client"},
	}
	opts = append(opts, workload.TopologyOptions(cache.SingleSocket(16), mem.FirstTouch)...)
	return append(opts, workload.WindowOption())
}

func (wl) Windows(quick bool) workload.Windows {
	if quick {
		return workload.Windows{Warmup: 1_000_000, Measure: 4_000_000}
	}
	return workload.Windows{Warmup: 2_000_000, Measure: 12_000_000}
}

func (wl) DefaultTarget() string { return "skbuff" }

func (wl) Build(cfg workload.Config) (core.Runnable, error) {
	c := DefaultConfig()
	if err := workload.ApplyTopology(cfg, &c.Sim, &c.Mem); err != nil {
		return nil, err
	}
	if n := c.Sim.Topology.NumCores(); c.Kern.TxQueues > n {
		c.Kern.TxQueues = n // one NIC queue pair per core, capped by the machine
	}
	c.Kern.LocalTxQueue = cfg.Bool("fix")
	if n := cfg.Int("window"); n > 0 {
		c.Window = n
	}
	return New(c), nil
}

// Machine, Alloc, and Locks satisfy core.Runnable.
func (b *Bench) Machine() *sim.Machine     { return b.M }
func (b *Bench) Alloc() *mem.Allocator     { return b.K.Alloc }
func (b *Bench) Locks() *lockstat.Registry { return b.K.Locks }

// Result implements core.Runnable.
func (b *Bench) Result(measure uint64) core.RunResult {
	st := b.stats(measure)
	return core.RunResult{
		Summary: st.String(),
		Values: map[string]float64{
			"throughput": st.Throughput,
			"completed":  float64(st.Completed),
			"drops":      float64(st.Drops),
		},
	}
}
