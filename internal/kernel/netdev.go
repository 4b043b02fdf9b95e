package kernel

import (
	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// Offsets within the net_device structure.
const (
	DevOffTxQueues = 8  // num_tx_queues, read by skb_tx_hash
	DevOffStats    = 64 // tx statistics, written on every transmit
	DevOffState    = 72 // device state flags, same line as the statistics
	DevOffFeatures = 16
)

// Offsets within a Qdisc structure (which also carries the driver's per-queue
// ring state at higher offsets).
const (
	QdiscOffLock   = 0   // qdisc spinlock word
	QdiscOffQlen   = 8   // queue length
	QdiscOffHead   = 16  // list head
	QdiscOffTail   = 24  // list tail
	QdiscOffRing   = 128 // driver TX ring state
	QdiscOffRxRing = 192 // driver RX ring state
)

// TxQueue is one NIC transmit queue with its pfifo_fast qdisc. The queue's
// interrupts (drain and TX completion) are bound to OwnerCore, as the paper's
// IXGBE configuration binds each queue to one core.
type TxQueue struct {
	ID        int
	OwnerCore int
	QdiscAddr uint64
	Lock      lockstat.Lock

	fifo     []SKB
	limit    int
	draining bool
}

// Len returns the number of queued packets.
func (q *TxQueue) Len() int { return len(q.fifo) }

// NetDevice is the simulated multiqueue NIC plus its net_device structure.
type NetDevice struct {
	k    *Kernel
	Addr uint64
	Tx   []*TxQueue
	rx   [][]SKB // the driver's per-queue receive rings of preallocated skbuffs

	txPackets uint64
	rxPackets uint64
	drops     uint64
}

func newNetDevice(k *Kernel) *NetDevice {
	_, devAddr := k.Alloc.Static("net_device", 128, "network device structure")
	qdiscClass := k.Locks.Class("Qdisc lock")
	_, qdiscAddrs := k.Alloc.StaticArray("Qdisc", 256, k.Cfg.TxQueues, "packet scheduler queue")
	d := &NetDevice{k: k, Addr: devAddr, rx: make([][]SKB, k.Cfg.TxQueues)}
	sim.RewindValues(k.M, d)
	for i := 0; i < k.Cfg.TxQueues; i++ {
		q := &TxQueue{
			ID:        i,
			OwnerCore: i % k.M.NumCores(),
			QdiscAddr: qdiscAddrs[i],
			Lock:      *lockstat.NewLock(qdiscClass, qdiscAddrs[i]+QdiscOffLock),
			limit:     k.Cfg.TxQueueLen,
		}
		d.Tx = append(d.Tx, q)
		sim.RewindValues(k.M, q)
		sim.RewindSlices(k.M, &q.fifo, &d.rx[i])
	}
	return d
}

// TxPackets returns the count of packets handed to the wire.
func (d *NetDevice) TxPackets() uint64 { return d.txPackets }

// Drops returns the count of packets dropped at full qdiscs.
func (d *NetDevice) Drops() uint64 { return d.drops }

// FillRxRing preallocates the receive ring for queue q (done on the queue's
// owner core at boot, as the driver does). The ring's skbuffs and payload
// buffers are live allocations: they are a large part of the skbuff working
// set in Table 6.1.
func (d *NetDevice) FillRxRing(c *sim.Ctx, q int) {
	for len(d.rx[q]) < d.k.Cfg.RxRingSize {
		d.rx[q] = append(d.rx[q], d.k.AllocSKB(c, false))
	}
}

// selectQueue picks the TX queue for a packet: the buggy default hashes the
// packet (skb_tx_hash), spreading one core's transmits over all queues; the
// fixed driver picks the caller's local queue.
func (d *NetDevice) selectQueue(c *sim.Ctx, skb SKB) int {
	if d.k.Cfg.LocalTxQueue {
		// The fix: a driver-provided ndo_select_queue that keeps the
		// packet on the transmitting core's own queue.
		defer c.Leave(c.EnterPC(pcIxgbeSelectQueue))
		c.Read(d.Addr+DevOffTxQueues, 4)
		return c.Core.ID % len(d.Tx)
	}
	defer c.Leave(c.EnterPC(pcSkbTxHash))
	c.Read(d.Addr+DevOffTxQueues, 4)
	c.Read(d.k.skb(skb).addr+SkbOffCB, 8)
	c.Compute(30) // jhash over the flow key
	return c.Rand().Intn(len(d.Tx))
}

// DevQueueXmit queues a packet for transmission: queue selection, the qdisc
// enqueue under the Qdisc lock, and a kick of the drain on the queue's owner
// core (§6.1's critical path).
func (d *NetDevice) DevQueueXmit(c *sim.Ctx, skb SKB) bool {
	defer c.Leave(c.EnterPC(pcDevQueueXmit))
	c.Read(d.Addr+DevOffState, 8) // qdisc state / device up check
	q := d.Tx[d.selectQueue(c, skb)]
	p := d.k.skb(skb)
	p.queue = q.ID
	c.Write(p.addr+SkbOffQueue, 2)
	c.Write(p.addr+SkbOffDev, 8)

	q.Lock.Acquire(c)
	if len(q.fifo) >= q.limit {
		q.Lock.Release(c)
		d.drops++
		d.k.KfreeSKB(c, skb)
		return false
	}
	func() {
		defer c.Leave(c.EnterPC(pcPfifoFastEnqueue))
		c.Read(q.QdiscAddr+QdiscOffQlen, 8)
		c.Write(p.addr+SkbOffNext, 8)
		c.Write(q.QdiscAddr+QdiscOffTail, 16) // tail pointer + qlen, one line
		q.fifo = append(q.fifo, skb)
	}()
	kick := !q.draining
	if kick {
		q.draining = true
	}
	q.Lock.Release(c)
	if kick {
		c.Spawn(q.OwnerCore, d.k.Cfg.DrainDelay, func(dc *sim.Ctx) { d.qdiscRun(dc, q) })
	}
	d.k.LocalBHEnable(c)
	return true
}

// drainBudget is how many packets one __qdisc_run invocation transmits before
// rescheduling itself. Kept small so no single task advances a core's clock
// far beyond its peers (the simulator's contention model relies on clocks
// staying roughly aligned).
const drainBudget = 4

// txTouchBytes is how much of the payload the transmit path reads (headers
// plus the immediate-descriptor copy region; the NIC offloads the rest of the
// checksum).
const txTouchBytes = 256

// qdiscRun drains the queue on its owner core: dequeue under the lock, then
// hand each packet to the driver. With the default hashed queue selection
// this is where payloads and skbuffs cross cores.
func (d *NetDevice) qdiscRun(c *sim.Ctx, q *TxQueue) {
	defer c.Leave(c.EnterPC(pcQdiscRun))
	for i := 0; i < drainBudget; i++ {
		q.Lock.Acquire(c)
		var skb SKB
		func() {
			defer c.Leave(c.EnterPC(pcPfifoFastDequeue))
			c.Read(q.QdiscAddr+QdiscOffQlen, 8)
			if len(q.fifo) == 0 {
				return
			}
			skb = q.fifo[0]
			q.fifo = q.fifo[1:]
			c.Read(d.k.skb(skb).addr+SkbOffNext, 8)
			c.Write(q.QdiscAddr+QdiscOffHead, 16) // head pointer + qlen, one line
		}()
		if skb.None() {
			q.draining = false
			q.Lock.Release(c)
			return
		}
		q.Lock.Release(c)
		d.hardStartXmit(c, q, skb)
	}
	// Budget exhausted; keep draining in a fresh task.
	c.Spawn(q.OwnerCore, 0, func(dc *sim.Ctx) { d.qdiscRun(dc, q) })
}

// hardStartXmit is the driver transmit path: reads the packet (checksum),
// maps it for DMA, posts the descriptor, and schedules the completion
// interrupt.
func (d *NetDevice) hardStartXmit(c *sim.Ctx, q *TxQueue, skb SKB) {
	defer c.Leave(c.EnterPC(pcDevHardStartXmit))
	p := d.k.skb(skb)
	c.Read(p.addr, 64)            // skb header: len, data, flags
	c.Read(d.Addr+DevOffState, 8) // netif_running / xmit-stopped checks
	func() {
		defer c.Leave(c.EnterPC(pcIxgbeXmitFrame))
		c.Read(p.addr+SkbOffData, 8)
		// The driver touches the packet head: headers for the checksum
		// pseudo-sum plus the region it copies into the immediate
		// descriptor. On the buggy path this read is the largest
		// cross-core transfer.
		n := p.len
		if n > txTouchBytes {
			n = txTouchBytes
		}
		if n > 0 {
			c.Read(p.data, n)
		}
		func() {
			defer c.Leave(c.EnterPC(pcSkbDmaMap))
			func() {
				defer c.Leave(c.EnterPC(pcPhysAddr))
				c.Compute(15)
			}()
			c.Read(p.addr+SkbOffDMA, 16)
			c.Write(p.addr+SkbOffDMA, 16)
		}()
		c.Compute(700)                        // descriptor setup, doorbell
		c.Write(q.QdiscAddr+QdiscOffRing, 16) // TX descriptor
		c.Write(d.Addr+DevOffStats, 16)       // dev stats: the net_device bounce
	}()
	d.txPackets++
	c.Spawn(q.OwnerCore, d.k.Cfg.WireDelay, func(cc *sim.Ctx) { d.cleanTxIrq(cc, q, skb) })
}

// cleanTxIrq is the TX-completion interrupt on the queue's owner core: it
// frees the skb (the remote free that exercises the SLAB alien caches) and
// fires the packet's completion callback.
func (d *NetDevice) cleanTxIrq(c *sim.Ctx, q *TxQueue, skb SKB) {
	defer c.Leave(c.EnterPC(pcIxgbeCleanTxIrq))
	c.Read(q.QdiscAddr+QdiscOffRing, 16)
	c.Write(q.QdiscAddr+QdiscOffRing, 8)
	c.Compute(500) // IRQ entry/exit, descriptor recycling
	done := d.k.skb(skb).onTxComplete
	d.k.DevKfreeSKBIrq(c, skb)
	if done != nil {
		done(c)
	}
}

// RxDeliver models the arrival of a packet on RX queue q (which interrupts
// the queue's owner core): the driver pulls a preallocated skb from the ring,
// replenishes the ring, and hands the packet up the stack. payloadLen is the
// number of payload bytes the "DMA" filled. The returned skb is owned by the
// caller's upper-layer handler.
func (d *NetDevice) RxDeliver(c *sim.Ctx, qid int, payloadLen uint32) SKB {
	ring := &d.rx[qid]
	var skb SKB
	var p *skbuff
	func() {
		defer c.Leave(c.EnterPC(pcEventHandler))
		func() {
			defer c.Leave(c.EnterPC(pcIxgbeCleanRxIrq))
			q := d.Tx[qid]
			c.Read(q.QdiscAddr+QdiscOffRxRing, 16) // RX descriptor
			if len(*ring) == 0 {
				// Ring underrun: allocate inline (slow path).
				skb = d.k.AllocSKB(c, false)
			} else {
				skb = (*ring)[0]
				*ring = (*ring)[1:]
				// Replenish the ring with a fresh skb.
				*ring = append(*ring, d.k.AllocSKB(c, false))
			}
			p = d.k.skb(skb)
			p.len = payloadLen
			c.Write(p.addr+SkbOffLen, 8)
			c.Write(q.QdiscAddr+QdiscOffRxRing, 8)
			c.Compute(600) // IRQ entry/exit, descriptor processing
			d.rxPackets++
		}()
		func() {
			defer c.Leave(c.EnterPC(pcIxgbeSetItrMsix))
			q := d.Tx[qid]
			c.Write(q.QdiscAddr+QdiscOffRxRing+32, 8) // interrupt moderation state
		}()
	}()
	func() {
		defer c.Leave(c.EnterPC(pcEthTypeTrans))
		c.Read(p.data, 14) // ethernet header
		c.Write(p.addr+SkbOffProto, 2)
	}()
	func() {
		defer c.Leave(c.EnterPC(pcIpRcv))
		c.Read(p.data+14, 20) // IP header
		c.Write(p.addr+SkbOffCB, 8)
		c.Compute(350) // header validation, routing decision
	}()
	return skb
}
