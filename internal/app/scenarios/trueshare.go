package scenarios

import (
	"fmt"

	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// TrueShareConfig parameterizes the true-sharing scenario: every core
// produces small job messages and submits them through a bucketed,
// spinlock-protected counter table (futex-hash-table style: fewer buckets
// than cores, so unrelated cores collide on buckets — the same collision
// structure behind the paper's Apache futex contention, Table 6.6). Each
// job is consumed — read and freed — on a different core, so the job
// objects, the counters, and the lock words all genuinely bounce.
//
// Partition is the fix: per-core buckets and same-core consumption remove
// both the lock contention and the sharing.
type TrueShareConfig struct {
	Sim       sim.Config
	Mem       mem.Config
	Buckets   int    // counter/lock buckets; < cores means contention
	Window    int    // outstanding jobs per producing core
	Think     uint64 // compute cycles per produce/consume step
	HandoffNs uint64 // cycles between submit and remote consumption
	Partition bool   // the fix: per-core buckets, same-core consumption
}

// DefaultTrueShareConfig collides sixteen cores on four buckets.
func DefaultTrueShareConfig() TrueShareConfig {
	return TrueShareConfig{
		Sim:       sim.DefaultConfig(),
		Mem:       mem.DefaultConfig(),
		Buckets:   4,
		Window:    2,
		Think:     400,
		HandoffNs: 300,
	}
}

// TrueShare is one instantiated true-sharing workload.
type TrueShare struct {
	*bench
	Cfg TrueShareConfig

	JobType      *mem.Type
	counterAddrs []uint64
	locks        []*lockstat.Lock
	completed    []uint64
}

// NewTrueShare builds the workload. Profilers may attach before Run.
func NewTrueShare(cfg TrueShareConfig) *TrueShare {
	if cfg.Buckets <= 0 || cfg.Window <= 0 {
		panic("scenarios: TrueShareConfig.Buckets and Window must be positive")
	}
	b := newBench(cfg.Sim, cfg.Mem)
	if cfg.Partition {
		// The fix: one bucket per core, nothing collides.
		cfg.Buckets = b.M.NumCores()
	}
	t := &TrueShare{
		bench:     b,
		Cfg:       cfg,
		completed: make([]uint64, b.M.NumCores()),
	}
	t.JobType = b.A.RegisterType("job", 64, "cross-core job message")
	_, t.counterAddrs = b.A.StaticArray("job_counter", 64, cfg.Buckets, "shared per-bucket completion counters")
	class := b.L.Class("job lock")
	for _, a := range t.counterAddrs {
		t.locks = append(t.locks, lockstat.NewLock(class, a))
	}
	b.M.AddSnapshotter(t)
	return t
}

type trueShareState struct {
	bench     benchState
	completed []uint64
	// The bucket locks are workload-owned, so their per-instance state is
	// captured here (the registry checkpoint only covers class counters).
	locks []lockstat.LockState
}

// SnapshotState implements sim.Snapshotter.
func (t *TrueShare) SnapshotState() any {
	st := &trueShareState{
		bench:     t.state(),
		completed: append([]uint64(nil), t.completed...),
		locks:     make([]lockstat.LockState, len(t.locks)),
	}
	for i, l := range t.locks {
		st.locks[i] = l.State()
	}
	return st
}

// RestoreState implements sim.Snapshotter.
func (t *TrueShare) RestoreState(state any) {
	st := state.(*trueShareState)
	t.setState(st.bench)
	copy(t.completed, st.completed)
	for i, l := range t.locks {
		l.SetState(st.locks[i])
	}
}

func (t *TrueShare) bucket(core int) int { return core % t.Cfg.Buckets }

// consumerOf maps a producing core to the core that consumes its jobs: the
// opposite half of the machine, or the same core under Partition.
func (t *TrueShare) consumerOf(core int) int {
	if t.Cfg.Partition {
		return core
	}
	return (core + t.M.NumCores()/2) % t.M.NumCores()
}

// produce allocates one job, fills it, and submits it through the bucket's
// locked counter; the consumer core picks it up after the handoff delay.
func (t *TrueShare) produce(c *sim.Ctx, core int) {
	addr := t.A.Alloc(c, t.JobType)
	func() {
		defer c.Leave(c.Enter("job_produce"))
		c.Write(addr, 64)
		c.Compute(t.Cfg.Think)
	}()
	func() {
		defer c.Leave(c.Enter("job_submit"))
		b := t.bucket(core)
		t.locks[b].Acquire(c)
		c.Read(t.counterAddrs[b], 8)
		c.Write(t.counterAddrs[b], 8)
		t.locks[b].Release(c)
	}()
	consumer := t.consumerOf(core)
	c.Spawn(consumer, t.Cfg.HandoffNs, func(cc *sim.Ctx) { t.consume(cc, core, addr) })
}

// consume reads the job on the consuming core, retires it through the same
// bucket counter, frees it (a remote free unless partitioned), and — closed
// loop — triggers the producer's next job.
func (t *TrueShare) consume(c *sim.Ctx, producer int, addr uint64) {
	func() {
		defer c.Leave(c.Enter("job_consume"))
		c.Read(addr, 64)
		c.Compute(t.Cfg.Think)
	}()
	func() {
		defer c.Leave(c.Enter("job_retire"))
		b := t.bucket(producer)
		t.locks[b].Acquire(c)
		c.Read(t.counterAddrs[b], 8)
		c.Write(t.counterAddrs[b], 8)
		t.locks[b].Release(c)
	}()
	t.A.Free(c, addr)
	if t.inWindow(c.Now()) {
		t.completed[c.Core.ID]++
	}
	if c.Now() < t.stopAt {
		producer := producer
		c.Spawn(producer, t.Cfg.HandoffNs, func(pc *sim.Ctx) { t.produce(pc, producer) })
	}
}

func (t *TrueShare) start(stopAt uint64) {
	if t.started {
		return
	}
	t.started = true
	t.stopAt = stopAt
	for core := 0; core < t.M.NumCores(); core++ {
		for w := 0; w < t.Cfg.Window; w++ {
			core := core
			t.M.Schedule(core, uint64(w)*197, func(c *sim.Ctx) { t.produce(c, core) })
		}
	}
}

// Prime starts the closed loops without running the machine.
func (t *TrueShare) Prime(horizon uint64) { t.start(horizon) }

// RunWarmup runs to the warmup boundary with the measured window armed to
// open there but never close.
func (t *TrueShare) RunWarmup(warmup uint64) {
	t.warmupWindow(warmup)
	t.start(t.stopAt)
	t.warm(warmup)
}

// RunMeasured arms and runs the measured window after a RunWarmup.
func (t *TrueShare) RunMeasured(warmup, measure uint64) core.RunResult {
	t.measured(warmup, measure)
	var total uint64
	for _, n := range t.completed {
		total += n
	}
	tput := float64(total) / seconds(measure)
	mode := "shared buckets"
	if t.Cfg.Partition {
		mode = "partitioned"
	}
	return core.RunResult{
		Summary: fmt.Sprintf("trueshare(%s): %.0f jobs/s (%d in %.1f ms, %d buckets)",
			mode, tput, total, float64(measure)/1e6, t.Cfg.Buckets),
		Values: map[string]float64{"throughput": tput, "jobs": float64(total)},
	}
}

// Run executes warmup then a measured window and reports job throughput.
func (t *TrueShare) Run(warmup, measure uint64) core.RunResult {
	t.RunWarmup(warmup)
	return t.RunMeasured(warmup, measure)
}

func init() { workload.Register(trueShareWL{}) }

type trueShareWL struct{}

func (trueShareWL) Name() string { return "trueshare" }

func (trueShareWL) Description() string {
	return "cross-core job handoff through bucketed spinlocked counters: true sharing plus futex-style lock collisions"
}

func (trueShareWL) Options() []workload.Option {
	return []workload.Option{
		{Name: "partition", Kind: workload.Bool, Default: "false",
			Usage: "per-core buckets and same-core consumption (the fix)"},
		{Name: "buckets", Kind: workload.Int, Default: "4",
			Usage: "shared counter/lock buckets (fewer than cores = contention)"},
		workload.SeedOption(),
		workload.WindowOption(),
	}
}

func (trueShareWL) Windows(quick bool) workload.Windows {
	if quick {
		return workload.Windows{Warmup: 250_000, Measure: 1_000_000}
	}
	return workload.Windows{Warmup: 1_000_000, Measure: 8_000_000}
}

func (trueShareWL) DefaultTarget() string { return "job" }

func (trueShareWL) Build(cfg workload.Config) (core.Runnable, error) {
	c := DefaultTrueShareConfig()
	workload.ApplySeed(cfg, &c.Sim)
	c.Partition = cfg.Bool("partition")
	if n := cfg.Int("buckets"); n > 0 {
		c.Buckets = n
	}
	return NewTrueShare(c), nil
}
