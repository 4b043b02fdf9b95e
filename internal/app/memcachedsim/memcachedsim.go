// Package memcachedsim implements the paper's first case study workload
// (§6.1): sixteen single-core memcached instances serving UDP GETs for a
// non-existent key, one closed-loop client per instance, with the NIC
// configured so each client's packets arrive on the queue (and thus the
// core) of the instance it talks to.
//
// The experiment is configured to isolate all data to one core — and yet,
// with the kernel's default skb_tx_hash transmit-queue selection, every
// response is drained and completed on a random core, bouncing the payload,
// the skbuff, the qdisc, and the SLAB free path across the machine. Setting
// Kern.LocalTxQueue applies the paper's fix (a driver-local queue-selection
// function, +57% throughput in the paper).
package memcachedsim

import (
	"fmt"

	"dprof/internal/kernel"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// Config parameterizes the workload.
type Config struct {
	Sim  sim.Config
	Mem  mem.Config
	Kern kernel.Config

	Window        int    // outstanding requests per client (closed loop)
	RequestBytes  uint32 // GET request payload
	ResponseBytes uint32 // response payload
	ClientRTT     uint64 // cycles between a response and the next request
	AppWakeDelay  uint64 // cycles from epoll wake to the event loop running
	BasePort      int
}

// DefaultConfig mirrors the paper's setup on the simulated machine.
func DefaultConfig() Config {
	return Config{
		Sim:           sim.DefaultConfig(),
		Mem:           mem.DefaultConfig(),
		Kern:          kernel.DefaultConfig(),
		Window:        4,
		RequestBytes:  64,
		ResponseBytes: 960,
		ClientRTT:     8000,
		AppWakeDelay:  300,
		BasePort:      11211,
	}
}

// Stats summarizes one measured run.
type Stats struct {
	Completed     uint64  // responses delivered during the measured window
	Throughput    float64 // responses per simulated second
	Drops         uint64  // packets dropped at full qdiscs
	MeasureCycles uint64
	PerCore       []uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("memcached: %.0f req/s (%d completed in %.1f ms, %d drops)",
		s.Throughput, s.Completed, float64(s.MeasureCycles)/1e6, s.Drops)
}

// User-space memory layout: addresses far outside the kernel's typed
// regions (the resolver returns "unresolved" for them).
const (
	userMemBase   = 0x7f00_0000_0000
	userMemStride = 0x10_0000
)

// Bench is one instantiated workload: machine, kernel, sockets, and clients.
type Bench struct {
	Cfg Config
	M   *sim.Machine
	K   *kernel.Kernel

	socks     []*kernel.UDPSock
	appQueued []bool
	hashAddrs []uint64 // per-instance memcached hash table (application data)
	completed []uint64 // responses delivered in the measured window, per core
}

// New builds the workload. Profilers may attach to b.M / b.K before it
// starts.
func New(cfg Config) *Bench {
	m := sim.New(cfg.Sim)
	k := kernel.New(m, cfg.Mem, cfg.Kern)
	b := &Bench{
		Cfg:       cfg,
		M:         m,
		K:         k,
		appQueued: make([]bool, m.NumCores()),
		completed: make([]uint64, m.NumCores()),
	}
	// The memcached hash table is user-space memory: the kernel's type
	// resolver cannot type it, so its samples show up as unresolved —
	// exactly as in the paper, whose tables list only kernel types.
	for core := 0; core < m.NumCores(); core++ {
		b.hashAddrs = append(b.hashAddrs, userMemBase+uint64(core)*userMemStride)
	}
	for core := 0; core < m.NumCores(); core++ {
		c := m.Ctx(core)
		sk := k.NewUDPSock(c, cfg.BasePort+core, core)
		b.socks = append(b.socks, sk)
		k.Dev.FillRxRing(c, core)
		core := core
		sk.Epoll.Wakeup = func(c *sim.Ctx) { b.wakeApp(c, core) }
	}
	sim.RewindSlices(m, &b.appQueued)
	sim.RewindSlices(m, &b.completed)
	return b
}

// Sock returns the instance socket on core i (tests use it).
func (b *Bench) Sock(i int) *kernel.UDPSock { return b.socks[i] }

// wakeApp schedules the instance's event loop if it is not already pending.
func (b *Bench) wakeApp(c *sim.Ctx, core int) {
	if b.appQueued[core] {
		return
	}
	b.appQueued[core] = true
	c.Spawn(core, b.Cfg.AppWakeDelay, func(ac *sim.Ctx) { b.appLoop(ac, core) })
}

// appBatch bounds the requests served per event-loop wakeup so no single
// task runs a core's clock far ahead of its peers.
const appBatch = 3

// appLoop is one wakeup of the memcached event loop: epoll_wait, then drain
// the socket, processing each request and sending its response.
func (b *Bench) appLoop(c *sim.Ctx, core int) {
	b.appQueued[core] = false
	sk := b.socks[core]
	b.K.EpollWait(c, sk.Epoll)
	for i := 0; i < appBatch; i++ {
		skb := sk.Recvmsg(c, b.Cfg.RequestBytes)
		if skb.None() {
			return
		}
		b.process(c, core)
		b.K.KfreeSKB(c, skb)
		sk.Sendmsg(c, b.Cfg.ResponseBytes, func(cc *sim.Ctx) { b.onResponse(cc, core) })
	}
	if sk.RxQueueLen() > 0 {
		b.wakeApp(c, core)
	}
}

// process models memcached's request handling: parse, hash, and a lookup
// that misses (the paper's clients ask for one non-existent key).
func (b *Bench) process(c *sim.Ctx, core int) {
	defer c.Leave(c.EnterPC(pcMemcachedProcess))
	c.Compute(2500) // syscall return, request parse, key hash, response format
	h := b.hashAddrs[core]
	c.Read(h+uint64(c.Rand().Intn(256))*64, 8) // bucket probe: key absent
	c.Read(h+uint64(c.Rand().Intn(256))*64, 8) // chain probe
}

// onResponse runs on the TX-completion core when a response reaches the
// wire: the client counts it and, after the network RTT, sends its next
// request (closed loop).
func (b *Bench) onResponse(c *sim.Ctx, core int) {
	if c.Measured() {
		b.completed[core]++
	}
	c.Spawn(core, b.Cfg.ClientRTT, func(rc *sim.Ctx) { b.arrival(rc, core) })
}

// arrival is one client request hitting the NIC: RX queue `core` receives
// it and the stack delivers it to the instance's socket.
func (b *Bench) arrival(c *sim.Ctx, core int) {
	skb := b.K.Dev.RxDeliver(c, core, b.Cfg.RequestBytes+42)
	b.K.UDPRcv(c, skb, b.Cfg.BasePort+core)
}

// Start primes the closed loop (core.Runnable): Window outstanding
// requests per client, spread over the first RTT, plus the periodic timer
// tick. A closed loop needs no stop horizon.
func (b *Bench) Start() {
	for core := 0; core < b.M.NumCores(); core++ {
		for w := 0; w < b.Cfg.Window; w++ {
			core := core
			t := uint64(w) * (b.Cfg.ClientRTT / uint64(b.Cfg.Window+1))
			b.M.Schedule(core, t, func(c *sim.Ctx) { b.arrival(c, core) })
		}
	}
	b.tick(0)
}

// tick is the timer interrupt: it advances the shared timebase once per
// simulated millisecond.
func (b *Bench) tick(at uint64) {
	b.M.Schedule(0, at, func(c *sim.Ctx) {
		b.K.TickXtime(c)
		b.tick(at + 1_000_000)
	})
}

// stats reads the measured window, measure cycles long.
func (b *Bench) stats(measure uint64) Stats {
	var st Stats
	st.MeasureCycles = measure
	st.PerCore = append(st.PerCore, b.completed...)
	for _, n := range b.completed {
		st.Completed += n
	}
	st.Drops = b.K.Dev.Drops()
	st.Throughput = float64(st.Completed) / (float64(measure) / float64(sim.Freq))
	return st
}
