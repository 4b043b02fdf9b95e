package apachesim

import (
	"strconv"

	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

func init() { workload.Register(wl{}) }

// wl registers the Apache case study (§6.2) with the workload registry.
type wl struct{}

func (wl) Name() string { return "apache" }

func (wl) Description() string {
	return "16 single-core Apache instances over TCP; past the drop-off the deep accept backlog lets tcp_socks go cold (§6.2)"
}

func (wl) Options() []workload.Option {
	opts := []workload.Option{
		{Name: "offered", Kind: workload.Float, Default: strconv.Itoa(PeakOffered),
			Usage: "offered connections/s/core (see PeakOffered/DropOffOffered)"},
		{Name: "backlog", Kind: workload.Int, Default: "0",
			Usage: "accept backlog override (0 = default 511; the §6.2 fix is a small cap)"},
	}
	opts = append(opts, workload.TopologyOptions(cache.SingleSocket(16), mem.FirstTouch)...)
	return append(opts, workload.WindowOption())
}

func (wl) Windows(quick bool) workload.Windows {
	if quick {
		return workload.Windows{Warmup: 6_000_000, Measure: 5_000_000}
	}
	return workload.Windows{Warmup: 12_000_000, Measure: 10_000_000}
}

func (wl) DefaultTarget() string { return "tcp_sock" }

func (wl) Build(cfg workload.Config) (core.Runnable, error) {
	c := DefaultConfig()
	if err := workload.ApplyTopology(cfg, &c.Sim, &c.Mem); err != nil {
		return nil, err
	}
	if n := c.Sim.Topology.NumCores(); c.Kern.TxQueues > n {
		c.Kern.TxQueues = n // one NIC queue pair per core, capped by the machine
	}
	c.OfferedPerCore = cfg.Float("offered")
	if b := cfg.Int("backlog"); b > 0 {
		c.Backlog = b
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
			"throughput":      st.Throughput,
			"completed":       float64(st.Completed),
			"refused":         float64(st.Refused),
			"avg_queue_delay": st.AvgQueueDelay,
		},
	}
}
