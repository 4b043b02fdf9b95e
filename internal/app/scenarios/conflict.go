package scenarios

import (
	"fmt"

	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// ConflictConfig parameterizes the associativity-conflict scenario (§4.2):
// a buffer pool laid out at a stride equal to the L1's set period, so every
// buffer maps to the same associativity set. A 2-way L1 thrashes with just
// three hot buffers even though the cache is nearly empty. "Coloring" the
// pool (Colored = true, a stride that is not a multiple of the set period)
// spreads the buffers and removes the misses.
type ConflictConfig struct {
	Sim     sim.Config
	Mem     mem.Config
	Buffers int
	Colored bool
}

// DefaultConflictConfig walks 24 ring buffers on one core.
func DefaultConflictConfig() ConflictConfig {
	scfg := sim.DefaultConfig()
	scfg.Cores = 1
	return ConflictConfig{Sim: scfg, Mem: mem.DefaultConfig(), Buffers: 24}
}

// Conflict is one instantiated conflict-miss workload.
type Conflict struct {
	bench
	Cfg ConflictConfig

	BufType *mem.Type
	Stride  uint64
	addrs   []uint64
	sweeps  uint64
}

// NewConflict builds the workload; the pathological stride is computed from
// the machine's actual L1 geometry (sets x line size).
func NewConflict(cfg ConflictConfig) *Conflict {
	b := newBench(cfg.Sim, cfg.Mem)
	setPeriod := uint64(b.M.Hier.L1Sets()) * b.M.Hier.Config().LineSize
	stride := setPeriod // aligned: every buffer lands in the same set
	if cfg.Colored {
		stride = 9*4096 + 64 // colored: one line of skew per buffer spreads the sets
	}
	cf := &Conflict{bench: b, Cfg: cfg, Stride: stride}
	cf.BufType, cf.addrs = b.A.StaticStrided("hot_buf", 64, cfg.Buffers, stride, "DMA descriptor ring")
	sim.RewindValues(b.M, &cf.sweeps)
	return cf
}

// sweep reads every ring buffer once, then reschedules itself until the
// stop horizon.
func (cf *Conflict) sweep(c *sim.Ctx) {
	func() {
		defer c.Leave(c.Enter("ring_walk"))
		for _, a := range cf.addrs {
			c.Read(a, 64)
		}
	}()
	if c.Measured() {
		cf.sweeps++
	}
	if c.Now() < c.M.Horizon() {
		c.Spawn(0, 0, func(cc *sim.Ctx) { cf.sweep(cc) })
	}
}

// Start starts the ring walk (core.Runnable).
func (cf *Conflict) Start() {
	cf.M.Schedule(0, 0, func(c *sim.Ctx) { cf.sweep(c) })
}

// Result implements core.Runnable.
func (cf *Conflict) Result(measure uint64) core.RunResult {
	tput := float64(cf.sweeps) / seconds(measure)
	layout := "aligned"
	if cf.Cfg.Colored {
		layout = "colored"
	}
	return core.RunResult{
		Summary: fmt.Sprintf("conflict(%s): %.0f ring sweeps/s (%d in %.1f ms, stride %d)",
			layout, tput, cf.sweeps, float64(measure)/1e6, cf.Stride),
		Values: map[string]float64{"throughput": tput, "sweeps": float64(cf.sweeps)},
	}
}

func init() { workload.Register(conflictWL{}) }

type conflictWL struct{}

func (conflictWL) Name() string { return "conflict" }

func (conflictWL) Description() string {
	return "a buffer ring strided at the L1 set period: a 2-way set thrashes while the cache sits empty (§4.2)"
}

func (conflictWL) Options() []workload.Option {
	return []workload.Option{
		{Name: "colored", Kind: workload.Bool, Default: "false",
			Usage: "color the pool (a stride off the set period; the fix)"},
		{Name: "buffers", Kind: workload.Int, Default: "24",
			Usage: "ring buffers in the pool"},
		workload.SeedOption(),
		workload.WindowOption(),
	}
}

func (conflictWL) Windows(quick bool) workload.Windows {
	if quick {
		return workload.Windows{Warmup: 200_000, Measure: 1_000_000}
	}
	return workload.Windows{Warmup: 1_000_000, Measure: 8_000_000}
}

func (conflictWL) DefaultTarget() string { return "hot_buf" }

func (conflictWL) Build(cfg workload.Config) (core.Runnable, error) {
	c := DefaultConflictConfig()
	workload.ApplySeed(cfg, &c.Sim)
	c.Colored = cfg.Bool("colored")
	if n := cfg.Int("buffers"); n > 0 {
		c.Buffers = n
	}
	return NewConflict(c), nil
}
