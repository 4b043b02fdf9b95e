package scenarios

import (
	"fmt"

	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// FalseShareConfig parameterizes the false-sharing scenario (§4.3): per-core
// statistics counters packed several to a cache line. Each core only ever
// touches its own counter — no logical sharing at all — yet every write
// invalidates the other cores' lines. Padding each counter to its own line
// (Align = 64) is the fix.
type FalseShareConfig struct {
	Sim   sim.Config
	Mem   mem.Config
	Align uint64 // counter alignment: 16 packs four per line (the bug), 64 pads (the fix)
	Chunk int    // counter updates per scheduled task (cores interleave between chunks)
	Think uint64 // compute cycles per update
}

// DefaultFalseShareConfig packs four 16-byte counters per cache line on a
// four-core machine.
func DefaultFalseShareConfig() FalseShareConfig {
	scfg := sim.DefaultConfig()
	scfg.Cores = 4
	return FalseShareConfig{Sim: scfg, Mem: mem.DefaultConfig(), Align: 16, Chunk: 8, Think: 25}
}

// FalseShare is one instantiated false-sharing workload.
type FalseShare struct {
	bench
	Cfg FalseShareConfig

	StatType *mem.Type
	addrs    []uint64
	ops      []uint64
}

// NewFalseShare builds the workload. Profilers may attach before Run.
func NewFalseShare(cfg FalseShareConfig) *FalseShare {
	b := newBench(cfg.Sim, cfg.Mem)
	f := &FalseShare{
		bench: b,
		Cfg:   cfg,
		addrs: make([]uint64, b.M.NumCores()),
		ops:   make([]uint64, b.M.NumCores()),
	}
	f.StatType = b.A.RegisterTypeAligned("pkt_stat", 16, "per-core packet counters", cfg.Align)
	sim.RewindSlices(b.M, &f.addrs, &f.ops)
	return f
}

// Start allocates the counters contiguously (one pool slab, one counter per
// core) at cycle zero — after any profiler has attached, so history
// collection can trap the allocations — then starts the per-core update
// loops.
func (f *FalseShare) Start() {
	f.M.Schedule(0, 0, func(c *sim.Ctx) {
		for i := range f.addrs {
			f.addrs[i] = f.A.Alloc(c, f.StatType)
		}
		for core := 0; core < f.M.NumCores(); core++ {
			core := core
			f.M.Schedule(core, c.Now(), func(cc *sim.Ctx) { f.step(cc, core) })
		}
	})
}

// step is one scheduled burst of counter updates. Updates run in short
// chunks so the cores interleave in simulated time, the way independent
// CPUs really do.
func (f *FalseShare) step(c *sim.Ctx, core int) {
	func() {
		defer c.Leave(c.Enter("count_packet"))
		for i := 0; i < f.Cfg.Chunk; i++ {
			c.Read(f.addrs[core], 8)
			c.Write(f.addrs[core], 8)
			c.Compute(f.Cfg.Think)
			if c.Measured() {
				f.ops[core]++
			}
		}
	}()
	if c.Now() < c.M.Horizon() {
		c.Spawn(core, 0, func(cc *sim.Ctx) { f.step(cc, core) })
	}
}

// Result implements core.Runnable.
func (f *FalseShare) Result(measure uint64) core.RunResult {
	var total uint64
	for _, n := range f.ops {
		total += n
	}
	tput := float64(total) / seconds(measure)
	layout := "packed"
	if f.Cfg.Align >= 64 {
		layout = "padded"
	}
	return core.RunResult{
		Summary: fmt.Sprintf("falseshare(%s): %.0f counter updates/s (%d in %.1f ms)",
			layout, tput, total, float64(measure)/1e6),
		Values: map[string]float64{"throughput": tput, "ops": float64(total)},
	}
}

func init() { workload.Register(falseShareWL{}) }

type falseShareWL struct{}

func (falseShareWL) Name() string { return "falseshare" }

func (falseShareWL) Description() string {
	return "per-core counters packed four to a cache line: invalidation misses with no logical sharing (§4.3)"
}

func (falseShareWL) Options() []workload.Option {
	return []workload.Option{
		{Name: "padded", Kind: workload.Bool, Default: "false",
			Usage: "pad each counter to its own cache line (the fix)"},
		workload.SeedOption(),
		workload.WindowOption(),
	}
}

func (falseShareWL) Windows(quick bool) workload.Windows {
	if quick {
		return workload.Windows{Warmup: 250_000, Measure: 1_000_000}
	}
	return workload.Windows{Warmup: 1_000_000, Measure: 8_000_000}
}

func (falseShareWL) DefaultTarget() string { return "pkt_stat" }

func (falseShareWL) Build(cfg workload.Config) (core.Runnable, error) {
	c := DefaultFalseShareConfig()
	workload.ApplySeed(cfg, &c.Sim)
	if cfg.Bool("padded") {
		c.Align = 64
	}
	return NewFalseShare(c), nil
}
