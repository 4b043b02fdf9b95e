package scenarios

import (
	"fmt"

	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// NumaRemoteConfig parameterizes the cross-chip allocation scenario: a
// producer core on socket 0 allocates and fills batches of buffers that
// consumer threads on the *other* sockets read and hand back. First-touch
// homes every slab on the producer's node, so each consumer read is a
// cross-chip transfer (the line sits modified in the producer's cache) or a
// remote-node memory fill — the miss class the multi-socket topology makes
// visible.
//
// LocalAlloc is the fix: each consumer allocates, fills, and recycles its
// own buffers on its own core, so the data is node-local and the hot loop
// runs out of the private caches.
type NumaRemoteConfig struct {
	Sim        sim.Config
	Mem        mem.Config
	ObjBytes   uint64             // buffer size
	Batch      int                // buffers per round
	Think      uint64             // compute cycles per buffer on the consumer
	HandoffNs  uint64             // cycles between fill and remote consumption
	Placement  workload.Placement // consumer threads per socket
	LocalAlloc bool               // the fix: allocate on the consuming node
}

// DefaultNumaRemoteConfig ships batches of 16 x 1 KB buffers from socket 0
// to one consumer on each other socket of the paper's 4x4 machine.
func DefaultNumaRemoteConfig() NumaRemoteConfig {
	scfg := sim.DefaultConfig()
	scfg.Cores = 0
	scfg.Topology = cache.PaperTopology()
	return NumaRemoteConfig{
		Sim:       scfg,
		Mem:       mem.DefaultConfig(),
		ObjBytes:  1024,
		Batch:     16,
		Think:     100,
		HandoffNs: 300,
		Placement: workload.Placement{ThreadsPerSocket: 1},
	}
}

// NumaRemote is one instantiated cross-chip allocation workload.
type NumaRemote struct {
	bench
	Cfg NumaRemoteConfig

	BufType   *mem.Type
	producer  int
	consumers []int
	consumed  []uint64
}

// NewNumaRemote builds the workload. Profilers may attach before Run.
func NewNumaRemote(cfg NumaRemoteConfig) *NumaRemote {
	if cfg.Batch <= 0 {
		panic("scenarios: NumaRemoteConfig.Batch must be positive")
	}
	b := newBench(cfg.Sim, cfg.Mem)
	n := &NumaRemote{
		bench:    b,
		Cfg:      cfg,
		producer: 0,
		consumed: make([]uint64, b.M.NumCores()),
	}
	topo := b.M.Topology()
	if topo.Sockets > 1 {
		// Remote consumption is the scenario: skip the producer's chip.
		for _, c := range cfg.Placement.Cores(topo) {
			if topo.SocketOf(c) != topo.SocketOf(n.producer) {
				n.consumers = append(n.consumers, c)
			}
		}
	} else {
		// Single socket: ThreadsPerSocket consumers on the cores after the
		// producer. Note the count does NOT scale the way multi-socket
		// placement does ((Sockets-1) x ThreadsPerSocket there) — when
		// comparing layouts, hold the consumer count fixed explicitly
		// (e.g. 1x16 with threads-per-socket 3 against the default 4x4).
		per := cfg.Placement.ThreadsPerSocket
		if per <= 0 || per >= topo.NumCores() {
			per = topo.NumCores() - 1
		}
		for c := 1; c <= per; c++ {
			n.consumers = append(n.consumers, c)
		}
	}
	if len(n.consumers) == 0 {
		panic("scenarios: numaremote placement leaves no consumer cores")
	}
	n.BufType = b.A.RegisterType("numa_buf", cfg.ObjBytes, "buffer allocated on one NUMA node and consumed from another")
	sim.RewindSlices(b.M, &n.consumed)
	return n
}

// produce allocates and fills one batch on the producer core, then hands it
// to the given consumer.
func (n *NumaRemote) produce(c *sim.Ctx, consumer int) {
	addrs := make([]uint64, n.Cfg.Batch)
	func() {
		defer c.Leave(c.Enter("numa_fill"))
		for i := range addrs {
			addrs[i] = n.A.Alloc(c, n.BufType)
			n.fill(c, addrs[i])
		}
	}()
	c.Spawn(consumer, n.Cfg.HandoffNs, func(cc *sim.Ctx) { n.consume(cc, addrs) })
}

// fill writes the whole buffer (the first touch that homes its slab).
func (n *NumaRemote) fill(c *sim.Ctx, addr uint64) {
	ls := n.M.Hier.Config().LineSize
	for off := uint64(0); off < n.Cfg.ObjBytes; off += ls {
		c.Write(addr+off, uint32(ls))
	}
}

// scan reads the whole buffer line by line (the consumer's work).
func (n *NumaRemote) scan(c *sim.Ctx, addr uint64) {
	ls := n.M.Hier.Config().LineSize
	for off := uint64(0); off < n.Cfg.ObjBytes; off += ls {
		c.Read(addr+off, uint32(ls))
	}
	c.Compute(n.Cfg.Think)
}

// consume reads the batch on the consumer core, then hands it back to the
// producer, which frees on the slabs' home node and starts the next round.
func (n *NumaRemote) consume(c *sim.Ctx, addrs []uint64) {
	func() {
		defer c.Leave(c.Enter("numa_consume"))
		for _, addr := range addrs {
			n.scan(c, addr)
			if c.Measured() {
				n.consumed[c.Core.ID]++
			}
		}
	}()
	consumer := c.Core.ID
	c.Spawn(n.producer, n.Cfg.HandoffNs, func(pc *sim.Ctx) {
		func() {
			defer pc.Leave(pc.Enter("numa_release"))
			for _, addr := range addrs {
				n.A.Free(pc, addr)
			}
		}()
		if pc.Now() < pc.M.Horizon() {
			n.produce(pc, consumer)
		}
	})
}

// localLoop is the fixed data path: the consumer allocates, fills, scans,
// and frees its own buffers — first touch on its own core homes every slab
// on its own node.
func (n *NumaRemote) localLoop(c *sim.Ctx) {
	addrs := make([]uint64, n.Cfg.Batch)
	func() {
		defer c.Leave(c.Enter("numa_fill"))
		for i := range addrs {
			addrs[i] = n.A.Alloc(c, n.BufType)
			n.fill(c, addrs[i])
		}
	}()
	func() {
		defer c.Leave(c.Enter("numa_consume"))
		for _, addr := range addrs {
			n.scan(c, addr)
			if c.Measured() {
				n.consumed[c.Core.ID]++
			}
		}
	}()
	func() {
		defer c.Leave(c.Enter("numa_release"))
		for _, addr := range addrs {
			n.A.Free(c, addr)
		}
	}()
	if c.Now() < c.M.Horizon() {
		c.Spawn(c.Core.ID, n.Cfg.HandoffNs, func(cc *sim.Ctx) { n.localLoop(cc) })
	}
}

// Start starts the rounds (core.Runnable).
func (n *NumaRemote) Start() {
	for i, consumer := range n.consumers {
		consumer := consumer
		if n.Cfg.LocalAlloc {
			n.M.Schedule(consumer, uint64(i)*131, func(c *sim.Ctx) { n.localLoop(c) })
		} else {
			n.M.Schedule(n.producer, uint64(i)*131, func(c *sim.Ctx) { n.produce(c, consumer) })
		}
	}
}

// Result implements core.Runnable.
func (n *NumaRemote) Result(measure uint64) core.RunResult {
	var total uint64
	for _, v := range n.consumed {
		total += v
	}
	tput := float64(total) / seconds(measure)
	mode := "remote alloc"
	if n.Cfg.LocalAlloc {
		mode = "local alloc"
	}
	tot := n.M.Hier.Totals()
	beyondL2 := tot.L3Hits + tot.ForeignHits + tot.ForeignRemoteHits + tot.DRAMFills + tot.DRAMRemoteFills
	remoteShare := 0.0
	if beyondL2 > 0 {
		remoteShare = float64(tot.ForeignRemoteHits+tot.DRAMRemoteFills) / float64(beyondL2)
	}
	return core.RunResult{
		Summary: fmt.Sprintf("numaremote(%s, %s): %.0f buffers/s (%d in %.1f ms, %d consumers, %.0f%% of deep misses cross-chip)",
			mode, n.M.Topology(), tput, total, float64(measure)/1e6, len(n.consumers), 100*remoteShare),
		Values: map[string]float64{
			"throughput":        tput,
			"buffers":           float64(total),
			"cross_chip_share":  remoteShare,
			"cross_chip_hits":   float64(tot.ForeignRemoteHits),
			"remote_dram_fills": float64(tot.DRAMRemoteFills),
		},
	}
}

func init() { workload.Register(numaRemoteWL{}) }

type numaRemoteWL struct{}

func (numaRemoteWL) Name() string { return "numaremote" }

func (numaRemoteWL) Description() string {
	return "buffers allocated on one NUMA node and consumed from another: cross-chip transfers and remote-node fills (fix: node-local allocation)"
}

func (numaRemoteWL) Options() []workload.Option {
	opts := []workload.Option{
		{Name: "localalloc", Kind: workload.Bool, Default: "false",
			Usage: "allocate on the consuming node instead of socket 0 (the fix)"},
		{Name: "batch", Kind: workload.Int, Default: "16",
			Usage: "buffers per round"},
		{Name: "objbytes", Kind: workload.Int, Default: "1024",
			Usage: "buffer size in bytes"},
		{Name: "threads-per-socket", Kind: workload.Int, Default: "1",
			Usage: "consumer threads per socket (0 = one per core)"},
	}
	opts = append(opts, workload.TopologyOptions(cache.PaperTopology(), mem.FirstTouch)...)
	return append(opts, workload.WindowOption())
}

func (numaRemoteWL) Windows(quick bool) workload.Windows {
	if quick {
		return workload.Windows{Warmup: 250_000, Measure: 1_000_000}
	}
	return workload.Windows{Warmup: 1_000_000, Measure: 8_000_000}
}

func (numaRemoteWL) DefaultTarget() string { return "numa_buf" }

func (numaRemoteWL) Build(cfg workload.Config) (core.Runnable, error) {
	c := DefaultNumaRemoteConfig()
	if err := workload.ApplyTopology(cfg, &c.Sim, &c.Mem); err != nil {
		return nil, err
	}
	c.LocalAlloc = cfg.Bool("localalloc")
	if n := cfg.Int("batch"); n > 0 {
		c.Batch = n
	}
	if n := cfg.Int("objbytes"); n > 0 {
		c.ObjBytes = uint64(n)
	}
	c.Placement.ThreadsPerSocket = cfg.Int("threads-per-socket")
	return NewNumaRemote(c), nil
}
