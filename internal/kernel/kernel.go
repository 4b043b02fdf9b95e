// Package kernel is the simulated Linux-kernel substrate the DProf case
// studies run on: a typed SLAB-backed network stack with skbuffs, a
// multiqueue NIC with pfifo_fast qdiscs, UDP and TCP sockets, epoll/wait
// queues, futexes, and task structures.
//
// The two performance bugs the paper diagnoses are built in, exactly as they
// existed in Linux 2.6:
//
//   - dev_queue_xmit selects a transmit queue with skb_tx_hash by default, so
//     a packet transmitted by core X is usually drained (pfifo_fast_dequeue,
//     dev_hard_start_xmit, ixgbe_clean_tx_irq) by the core that owns the
//     hashed queue — bouncing the packet payload, the skbuff, and the SLAB
//     free path across cores (§6.1). Setting Config.LocalTxQueue installs the
//     fix: a driver queue-selection function that picks the local queue.
//
//   - TCP listeners keep an accept backlog; when the backlog is allowed to
//     grow, a tcp_sock sits queued long enough for its cache lines to be
//     evicted before accept touches them (§6.2). AcceptBacklog caps the queue
//     (the paper's admission-control fix uses a small cap).
//
// All function names entered on the simulated call stack are the Linux
// function names that appear in the paper's tables and figures.
package kernel

import (
	"fmt"

	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// Config describes the kernel build for one simulated machine.
type Config struct {
	TxQueues     int    // NIC TX/RX queue pairs (the paper's IXGBE has 16)
	TxQueueLen   int    // pfifo_fast per-queue packet limit
	RxRingSize   int    // preallocated skbuffs per RX queue
	WireDelay    uint64 // cycles between DMA and TX-completion interrupt
	DrainDelay   uint64 // cycles between enqueue and qdisc drain kick
	LocalTxQueue bool   // the §6.1 fix: select the local TX queue
	TimeWait     uint64 // cycles a closed tcp_sock lingers before its free
}

// DefaultConfig mirrors the paper's testbed.
func DefaultConfig() Config {
	return Config{
		TxQueues:   16,
		TxQueueLen: 1000,
		RxRingSize: 256,
		WireDelay:  3000,
		DrainDelay: 200,
	}
}

// Kernel ties together the machine, allocator, and network substrate.
type Kernel struct {
	Cfg   Config
	M     *sim.Machine
	Alloc *mem.Allocator
	Locks *lockstat.Registry

	// Object types used by the stack. Sizes match the paper's tables.
	SkbType     *mem.Type // skbuff, 256 B
	FcloneType  *mem.Type // skbuff_fclone, 512 B (TCP transmit clones)
	PayloadType *mem.Type // size-1024, packet payload
	UDPSockType *mem.Type // udp_sock, 1024 B
	TCPSockType *mem.Type // tcp_sock, 1600 B
	TaskType    *mem.Type // task_struct, 2048 B

	Dev *NetDevice

	xtimeAddr uint64   // the kernel timebase (getnstimeofday reads it)
	tvecAddrs []uint64 // per-core timer wheels (mod_timer touches them)

	sockLockClass *lockstat.Class

	epolls []*EventPoll // one per core
	Futex  *FutexTable

	udpPorts map[int]*UDPSock
	tcpPorts map[int]*Listener

	// Packets and connections live in arenas of fixed slots, as the
	// kernel's slab caches keep them; freeing a slot zeroes it and pushes
	// its index on the free list. Packet slot 0 stays empty: the zero SKB
	// names no packet.
	skbs     []skbuff
	skbFree  []int32
	conns    []tcpConn
	connFree []int32
}

// New builds a kernel on top of a fresh machine.
func New(m *sim.Machine, acfg mem.Config, kcfg Config) *Kernel {
	if kcfg.TxQueues <= 0 || kcfg.TxQueues > m.NumCores() {
		panic(fmt.Sprintf("kernel: TxQueues %d must be in [1,%d]", kcfg.TxQueues, m.NumCores()))
	}
	locks := lockstat.NewRegistry()
	alloc := mem.New(acfg, m.NumCores(), locks)
	alloc.BindMachine(m)
	k := &Kernel{
		Cfg:      kcfg,
		M:        m,
		Alloc:    alloc,
		Locks:    locks,
		udpPorts: make(map[int]*UDPSock),
		tcpPorts: make(map[int]*Listener),
		skbs:     make([]skbuff, 1),
	}
	k.SkbType = alloc.RegisterType("skbuff", 256, "packet bookkeeping structure")
	k.FcloneType = alloc.RegisterType("skbuff_fclone", 512, "TCP packet bookkeeping structure")
	k.PayloadType = alloc.RegisterType("size-1024", 1024, "packet payload")
	k.UDPSockType = alloc.RegisterType("udp_sock", 1024, "UDP socket structure")
	k.TCPSockType = alloc.RegisterType("tcp_sock", 1600, "TCP socket structure")
	k.TaskType = alloc.RegisterType("task_struct", 2048, "task structure")

	_, k.xtimeAddr = alloc.Static("xtime", 64, "kernel timebase")
	_, k.tvecAddrs = alloc.StaticArray("tvec_base", 2048, m.NumCores(), "per-core timer wheel")

	k.sockLockClass = locks.Class("socket lock")

	// A warm-start checkpoint copies the arenas whole, free slots and free
	// lists included, so it rewinds every packet and connection wherever
	// its handle is held: in a queue, in a wheel event (a packet on the
	// wire, a completion), or in a workload's task. The device, epoll
	// instances, futex table and sockets register their own queues and
	// locks.
	sim.RewindSlices(m, &k.skbs)
	sim.RewindSlices(m, &k.conns)
	sim.RewindSlices(m, &k.skbFree, &k.connFree)
	k.Dev = newNetDevice(k)
	k.initEpoll()
	k.Futex = newFutexTable(k)
	return k
}

// Getnstimeofday models packet timestamping: a read of the shared timebase.
func (k *Kernel) Getnstimeofday(c *sim.Ctx) {
	defer c.Leave(c.EnterPC(pcGetnstimeofday))
	c.Read(k.xtimeAddr, 8)
	c.Compute(20)
}

// TickXtime advances the timebase (the timer interrupt's write); called
// periodically by workloads so the xtime line is occasionally invalidated.
func (k *Kernel) TickXtime(c *sim.Ctx) {
	c.Write(k.xtimeAddr, 8)
}

// ModTimer models arming or rearming a timer on the calling core's timer
// wheel (TCP does this on every connection setup and teardown).
func (k *Kernel) ModTimer(c *sim.Ctx) {
	defer c.Leave(c.EnterPC(pcModTimer))
	base := k.tvecAddrs[c.Core.ID]
	slot := uint64(c.Rand().Intn(28)) * 64
	c.Read(base+slot, 16)
	c.Write(base+slot, 16)
	c.Compute(60)
}

// LocalBHEnable models the bottom-half bookkeeping the RX path performs.
func (k *Kernel) LocalBHEnable(c *sim.Ctx) {
	defer c.Leave(c.EnterPC(pcLocalBhEnable))
	c.Compute(40)
}
