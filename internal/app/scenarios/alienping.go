package scenarios

import (
	"fmt"

	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// AlienPingConfig parameterizes the allocator ping-pong scenario: producer
// cores allocate batches of buffers that partner cores on the other half of
// the machine read and then free. Every such free is remote — the slab's
// home is the producing core — so it lands in the pool's alien cache and is
// batch-drained back to the home slabs (__drain_alien_cache), writing the
// array_cache and slab bookkeeping lines from the wrong core. That is the
// exact allocator path behind the slab/array_cache rows of Table 6.1.
//
// LocalFree is the fix: the consumer only reads, and the producer frees its
// own buffers on the home core, keeping the free fast path per-CPU.
type AlienPingConfig struct {
	Sim       sim.Config
	Mem       mem.Config
	ObjBytes  uint64 // buffer size
	Batch     int    // buffers per ping-pong round
	Think     uint64 // compute cycles per buffer on the consumer
	HandoffNs uint64 // cycles between fill and remote drain
	LocalFree bool   // the fix: free on the allocating core
}

// DefaultAlienPingConfig ping-pongs 8 x 256-byte buffers per round between
// opposite halves of the 16-core machine.
func DefaultAlienPingConfig() AlienPingConfig {
	return AlienPingConfig{
		Sim:       sim.DefaultConfig(),
		Mem:       mem.DefaultConfig(),
		ObjBytes:  256,
		Batch:     8,
		Think:     150,
		HandoffNs: 300,
	}
}

// AlienPing is one instantiated remote-free workload.
type AlienPing struct {
	bench
	Cfg AlienPingConfig

	PingType *mem.Type
	rounds   []uint64
}

// NewAlienPing builds the workload. Profilers may attach before Run.
func NewAlienPing(cfg AlienPingConfig) *AlienPing {
	if cfg.Batch <= 0 {
		panic("scenarios: AlienPingConfig.Batch must be positive")
	}
	b := newBench(cfg.Sim, cfg.Mem)
	a := &AlienPing{
		bench:  b,
		Cfg:    cfg,
		rounds: make([]uint64, b.M.NumCores()),
	}
	a.PingType = b.A.RegisterType("ping_obj", cfg.ObjBytes, "producer-allocated buffer freed on a remote core")
	sim.RewindSlices(b.M, &a.rounds)
	return a
}

// produce allocates and fills one batch on the producing core, then hands
// the batch to the partner core on the opposite half of the machine.
func (a *AlienPing) produce(c *sim.Ctx, core int) {
	addrs := make([]uint64, a.Cfg.Batch)
	func() {
		defer c.Leave(c.Enter("ping_fill"))
		for i := range addrs {
			addrs[i] = a.A.Alloc(c, a.PingType)
			c.Write(addrs[i], 64)
		}
	}()
	partner := (core + a.M.NumCores()/2) % a.M.NumCores()
	c.Spawn(partner, a.Cfg.HandoffNs, func(cc *sim.Ctx) { a.consume(cc, core, addrs) })
}

// consume reads the batch on the partner core and — unless LocalFree —
// frees each buffer there, pushing it through the alien cache.
func (a *AlienPing) consume(c *sim.Ctx, producer int, addrs []uint64) {
	func() {
		defer c.Leave(c.Enter("ping_drain"))
		for _, addr := range addrs {
			c.Read(addr, 64)
			c.Compute(a.Cfg.Think)
			if !a.Cfg.LocalFree {
				a.A.Free(c, addr)
			}
		}
	}()
	if c.Measured() {
		a.rounds[c.Core.ID]++
	}
	if a.Cfg.LocalFree {
		// The fix: ownership returns to the producer, which frees on the
		// slab's home core (the per-CPU fast path) before the next round.
		c.Spawn(producer, a.Cfg.HandoffNs, func(pc *sim.Ctx) {
			func() {
				defer pc.Leave(pc.Enter("ping_release"))
				for _, addr := range addrs {
					a.A.Free(pc, addr)
				}
			}()
			if pc.Now() < pc.M.Horizon() {
				a.produce(pc, producer)
			}
		})
		return
	}
	if c.Now() < c.M.Horizon() {
		producer := producer
		c.Spawn(producer, a.Cfg.HandoffNs, func(pc *sim.Ctx) { a.produce(pc, producer) })
	}
}

// Start starts the ping-pong loops (core.Runnable).
func (a *AlienPing) Start() {
	for core := 0; core < a.M.NumCores()/2; core++ {
		core := core
		a.M.Schedule(core, uint64(core)*131, func(c *sim.Ctx) { a.produce(c, core) })
	}
}

// Result implements core.Runnable.
func (a *AlienPing) Result(measure uint64) core.RunResult {
	var total uint64
	for _, n := range a.rounds {
		total += n
	}
	tput := float64(total) / seconds(measure)
	mode := "remote free"
	if a.Cfg.LocalFree {
		mode = "local free"
	}
	return core.RunResult{
		Summary: fmt.Sprintf("alienping(%s): %.0f rounds/s (%d in %.1f ms, batch %d)",
			mode, tput, total, float64(measure)/1e6, a.Cfg.Batch),
		Values: map[string]float64{"throughput": tput, "rounds": float64(total)},
	}
}

func init() { workload.Register(alienPingWL{}) }

type alienPingWL struct{}

func (alienPingWL) Name() string { return "alienping" }

func (alienPingWL) Description() string {
	return "batched cross-core alloc/free ping-pong through the SLAB alien caches (the __drain_alien_cache path of §6.1)"
}

func (alienPingWL) Options() []workload.Option {
	opts := []workload.Option{
		{Name: "localfree", Kind: workload.Bool, Default: "false",
			Usage: "free on the allocating core instead of the remote reader (the fix)"},
		{Name: "batch", Kind: workload.Int, Default: "8",
			Usage: "buffers per ping-pong round"},
		{Name: "aliencap", Kind: workload.Int, Default: "12",
			Usage: "alien cache capacity per (pool, home core); 1 drains on every remote free"},
	}
	opts = append(opts, workload.TopologyOptions(cache.SingleSocket(16), mem.FirstTouch)...)
	return append(opts, workload.WindowOption())
}

func (alienPingWL) Windows(quick bool) workload.Windows {
	if quick {
		return workload.Windows{Warmup: 250_000, Measure: 1_000_000}
	}
	return workload.Windows{Warmup: 1_000_000, Measure: 8_000_000}
}

func (alienPingWL) DefaultTarget() string { return "ping_obj" }

func (alienPingWL) Build(cfg workload.Config) (core.Runnable, error) {
	c := DefaultAlienPingConfig()
	if err := workload.ApplyTopology(cfg, &c.Sim, &c.Mem); err != nil {
		return nil, err
	}
	c.LocalFree = cfg.Bool("localfree")
	if n := cfg.Int("batch"); n > 0 {
		c.Batch = n
	}
	if n := cfg.Int("aliencap"); n > 0 {
		c.Mem.AlienCap = n
	}
	return NewAlienPing(c), nil
}
