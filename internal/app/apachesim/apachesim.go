// Package apachesim implements the paper's second case study workload
// (§6.2): sixteen single-core Apache instances serving a 1024-byte static
// file out of memory, with open-loop clients that open a TCP connection,
// send one request, and close.
//
// The workload exhibits the paper's peak/drop-off behaviour: past a certain
// offered load the accept backlog fills, connections wait long enough that
// their tcp_sock (and request payload) cache lines are evicted before the
// server touches them, per-request cost rises, and throughput *falls*.
// Config.Backlog caps the accept queue; the paper's fix is admission control
// (a small cap), worth +16% at the drop-off offered load.
package apachesim

import (
	"fmt"
	"math"

	"dprof/internal/kernel"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// Config parameterizes the workload.
type Config struct {
	Sim  sim.Config
	Mem  mem.Config
	Kern kernel.Config

	Backlog        int     // accept-queue limit (large = the bug; small = the fix)
	OfferedPerCore float64 // offered connections per second per core
	FileBytes      uint32  // served file size (the paper's MMapFile is 1024 B)
	RequestBytes   uint32
	WorkersPerCore int // Apache worker threads per instance
	AcceptBatch    int // connections served per event-loop wakeup
	AppWakeDelay   uint64
	BasePort       int
}

// Operating points for the two runs the paper profiles (§6.2): an offered
// load just below the machine's capacity (peak) and one safely beyond it
// (drop-off). Calibrated against the simulated machine: `dprof-bench
// -experiment table6.4,table6.5 -values` prints the throughput and the
// tcp_sock working set and miss latency each point produces.
const (
	PeakOffered    = 65_000  // connections/s/core: ~80% utilization, shallow queues
	DropOffOffered = 110_000 // connections/s/core: saturated, backlog pinned at the limit
)

// FixedBacklog is the paper's admission-control fix: cap the accept queue so
// connections are refused instead of going cold while queued.
const FixedBacklog = 16

// DefaultConfig mirrors the paper's setup; OfferedPerCore must be chosen per
// experiment (see PeakOffered / DropOffOffered).
func DefaultConfig() Config {
	kern := kernel.DefaultConfig()
	kern.LocalTxQueue = true // the Apache study ran flow-consistent TX queues
	kern.TimeWait = 400_000  // closed sockets linger ~0.4 ms
	kern.RxRingSize = 128    // TCP workload: smaller RX rings than the UDP study
	return Config{
		Sim:            sim.DefaultConfig(),
		Mem:            mem.DefaultConfig(),
		Kern:           kern,
		Backlog:        511, // Linux's default somaxconn: the misconfiguration
		OfferedPerCore: PeakOffered,
		FileBytes:      1024,
		RequestBytes:   128,
		WorkersPerCore: 36,
		AcceptBatch:    8,
		AppWakeDelay:   300,
		BasePort:       80,
	}
}

// Stats summarizes one measured run.
type Stats struct {
	Completed     uint64
	Throughput    float64 // requests per simulated second
	Refused       uint64  // connections dropped at a full backlog
	AvgQueueDelay float64 // mean cycles a connection waited before accept
	MeasureCycles uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("apache: %.0f req/s (%d completed, %d refused, avg accept delay %.0f cycles)",
		s.Throughput, s.Completed, s.Refused, s.AvgQueueDelay)
}

// pageCacheBase is the simulated address of the mmapped file's page-cache
// page, outside every typed region.
const pageCacheBase = 0x7e00_0000_0000

// Bench is one instantiated Apache workload.
type Bench struct {
	Cfg Config
	M   *sim.Machine
	K   *kernel.Kernel

	listeners []*kernel.Listener
	listTask  []*kernel.Task
	workers   [][]*kernel.Task
	rr        []int
	appQueued []bool
	pageAddr  uint64

	completed  []uint64 // requests completed in the measured window, per core
	queueDelay uint64   // summed accept delays (measured window)
	accepted   uint64
}

// New builds the workload. Profilers may attach to b.M / b.K before it
// starts.
func New(cfg Config) *Bench {
	if cfg.Backlog <= 0 || cfg.WorkersPerCore <= 0 || cfg.AcceptBatch <= 0 {
		panic("apachesim: Backlog, WorkersPerCore and AcceptBatch must be positive")
	}
	m := sim.New(cfg.Sim)
	k := kernel.New(m, cfg.Mem, cfg.Kern)
	b := &Bench{
		Cfg:       cfg,
		M:         m,
		K:         k,
		appQueued: make([]bool, m.NumCores()),
		completed: make([]uint64, m.NumCores()),
		rr:        make([]int, m.NumCores()),
	}
	// The served file lives in a page-cache page: not a SLAB object, so the
	// type resolver cannot type it (its samples count as unresolved, which
	// is why the paper's Apache tables do not list the file data).
	b.pageAddr = pageCacheBase
	for core := 0; core < m.NumCores(); core++ {
		c := m.Ctx(core)
		l := k.NewListener(c, cfg.BasePort+core, core, cfg.Backlog)
		b.listeners = append(b.listeners, l)
		k.Dev.FillRxRing(c, core)
		b.listTask = append(b.listTask, k.NewTask(c, fmt.Sprintf("apache/listener-%d", core)))
		var ws []*kernel.Task
		for w := 0; w < cfg.WorkersPerCore; w++ {
			ws = append(ws, k.NewTask(c, fmt.Sprintf("apache/worker-%d-%d", core, w)))
		}
		b.workers = append(b.workers, ws)
		core := core
		l.Epoll.Wakeup = func(c *sim.Ctx) { b.wakeApp(c, core) }
	}
	sim.RewindSlices(m, &b.rr)
	sim.RewindSlices(m, &b.appQueued)
	sim.RewindSlices(m, &b.completed)
	sim.RewindValues(m, &b.queueDelay, &b.accepted)
	return b
}

// Listener returns core i's listening socket.
func (b *Bench) Listener(i int) *kernel.Listener { return b.listeners[i] }

func (b *Bench) wakeApp(c *sim.Ctx, core int) {
	if b.appQueued[core] {
		return
	}
	b.appQueued[core] = true
	c.Spawn(core, b.Cfg.AppWakeDelay, func(ac *sim.Ctx) { b.appLoop(ac, core) })
}

// appLoop is one wakeup of an Apache instance: accept and serve up to
// AcceptBatch connections, handing each to a worker thread.
func (b *Bench) appLoop(c *sim.Ctx, core int) {
	b.appQueued[core] = false
	l := b.listeners[core]
	b.K.EpollWait(c, l.Epoll)
	for i := 0; i < b.Cfg.AcceptBatch; i++ {
		conn := l.Accept(c)
		if conn.None() {
			return
		}
		if c.Measured() {
			b.queueDelay += conn.QueueDelay(c)
			b.accepted++
		}
		b.serve(c, core, conn)
	}
	if l.QueueLen() > 0 {
		b.wakeApp(c, core)
	}
}

// serve hands the connection to the next worker thread: futex wake, context
// switch, request read, file copy, response transmit, close, and the switch
// back to the listener.
func (b *Bench) serve(c *sim.Ctx, core int, conn kernel.TCPConn) {
	k := b.K
	w := b.workers[core][b.rr[core]%len(b.workers[core])]
	b.rr[core]++
	k.Futex.Wake(c, uint64(core))
	k.ContextSwitch(c, b.listTask[core], w)

	conn.ReadRequest(c, b.Cfg.RequestBytes)
	func() {
		defer c.Leave(c.EnterPC(pcApacheProcess))
		c.Compute(6000)                     // parse, headers, logging, filters
		c.Read(b.pageAddr, b.Cfg.FileBytes) // the mmapped file
	}()
	conn.SendResponse(c, b.Cfg.FileBytes, func(cc *sim.Ctx) { b.onResponse(cc, core) })
	conn.Close(c)

	k.Futex.Wait(c, uint64(core))
	k.ContextSwitch(c, w, b.listTask[core])
}

func (b *Bench) onResponse(c *sim.Ctx, core int) {
	if c.Measured() {
		b.completed[core]++
	}
}

// scheduleArrival queues one client connection to hit RX queue `core` at
// absolute time `at`, and chains the next arrival with exponential spacing.
// Arrival times are anchored to client wall-clock time, not to the server
// core's availability: the load generators are independent machines, so an
// overloaded server accumulates backlog instead of throttling the offered
// load (that is the whole point of the §6.2 drop-off). Arrivals stop at the
// machine's horizon.
func (b *Bench) scheduleArrival(core int, at uint64) {
	if at >= b.M.Horizon() {
		return
	}
	b.M.Schedule(core, at, func(c *sim.Ctx) {
		skb := b.K.Dev.RxDeliver(c, core, b.Cfg.RequestBytes+54)
		b.listeners[core].RxSyn(c, skb)
		b.scheduleArrival(core, at+b.interArrival(c))
	})
}

func (b *Bench) interArrival(c *sim.Ctx) uint64 {
	mean := float64(sim.Freq) / b.Cfg.OfferedPerCore
	gap := -math.Log(1-c.Rand().Float64()) * mean
	if gap < 1 {
		gap = 1
	}
	if gap > 10*mean {
		gap = 10 * mean
	}
	return uint64(gap)
}

// Start starts the open-loop arrival processes and the timer tick
// (core.Runnable).
func (b *Bench) Start() {
	for core := 0; core < b.M.NumCores(); core++ {
		b.scheduleArrival(core, uint64(core)*97)
	}
	b.tick(0)
}

func (b *Bench) tick(at uint64) {
	if at >= b.M.Horizon() {
		return
	}
	b.M.Schedule(0, at, func(c *sim.Ctx) {
		b.K.TickXtime(c)
		b.tick(at + 1_000_000)
	})
}

// stats reads the measured window, measure cycles long.
func (b *Bench) stats(measure uint64) Stats {
	var st Stats
	st.MeasureCycles = measure
	for _, n := range b.completed {
		st.Completed += n
	}
	for _, l := range b.listeners {
		st.Refused += l.Refused()
	}
	if b.accepted > 0 {
		st.AvgQueueDelay = float64(b.queueDelay) / float64(b.accepted)
	}
	st.Throughput = float64(st.Completed) / (float64(measure) / float64(sim.Freq))
	return st
}
