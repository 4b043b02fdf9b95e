package kernel

import (
	"reflect"
	"testing"

	"dprof/internal/sim"
)

// packet is what a test compares of an arena slot.
type packet struct {
	addr, data uint64
	len        uint32
	queue      int
	completion bool
}

// kernelView is the kernel state a checkpoint must rewind: both arenas
// slot by slot with their free lists, every queue, and the device and
// listener counters.
type kernelView struct {
	skbs              []packet
	conns             []tcpConn
	skbFree, connFree []int32
	fifos, rings      [][]SKB
	draining          []bool
	udp               []SKB
	acceptQ           []int32
	refused, drops    uint64
	txed              uint64
}

// TestCheckpointRewindsKernel: a checkpoint taken while the kernel holds
// packets in a qdisc fifo, in the RX rings, on the wire and in a UDP
// receive queue, an accepted connection not yet served with its request
// packet, a queued connection and a pending TIME_WAIT free restores, after
// a run that serves and frees all of them and reuses their arena slots, to
// the same arenas, queues and counters, and replays that run with the same
// simulated addresses; twice over. A second checkpoint taken after that run
// restores too after a run from the first one that diverged from it: the
// queue arrays keep spare capacity, so the divergent run overwrites
// elements the second checkpoint's queues still use.
func TestCheckpointRewindsKernel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 2
	cfg.TxQueueLen = 4
	cfg.RxRingSize = 4
	cfg.DrainDelay = 1 << 40 // park the drain kicks: only explicit drains run
	cfg.LocalTxQueue = true
	cfg.TimeWait = 10_000
	m, k := testKernel(2, cfg)
	var (
		sk       *UDPSock
		l        *Listener
		accepted TCPConn
	)
	m.Schedule(0, 0, func(c *sim.Ctx) {
		k.Dev.FillRxRing(c, 0)
		k.Dev.FillRxRing(c, 1)
		sk = k.NewUDPSock(c, 9000, 0)
		l = k.NewListener(c, 80, 0, 3)
		for i := 0; i < 5; i++ {
			sk.Sendmsg(c, 100, nil) // four queued on TX queue 0, one dropped
		}
		k.Dev.qdiscRun(c, k.Dev.Tx[0]) // four on the wire, the drain goes on
		for i := 0; i < 3; i++ {
			sk.Sendmsg(c, 100, nil) // queued behind the drain
		}
		for i := 0; i < 3; i++ {
			k.UDPRcv(c, k.Dev.RxDeliver(c, 0, 80), 9000)
		}
		k.KfreeSKB(c, sk.Recvmsg(c, 64))
		k.KfreeSKB(c, sk.Recvmsg(c, 64))
		for i := 0; i < 4; i++ {
			l.RxSyn(c, k.Dev.RxDeliver(c, 0, 128)) // the fourth is refused
		}
		accepted = l.Accept(c)
		tw := l.Accept(c)
		tw.ReadRequest(c, 64)
		tw.Close(c) // its tcp_sock is freed after TIME_WAIT
	})
	m.Run(0)
	// Later runs start once the build's drain, wire completions and
	// TIME_WAIT free have fired (the build leaves core 0 at ~67k cycles).
	const runAt, runTo = 200_000, 400_000

	view := func() kernelView {
		v := kernelView{
			conns:    append([]tcpConn(nil), k.conns...),
			skbFree:  append([]int32(nil), k.skbFree...),
			connFree: append([]int32(nil), k.connFree...),
			udp:      append([]SKB(nil), sk.rxq...),
			acceptQ:  append([]int32(nil), l.acceptQ...),
			refused:  l.Refused(),
			drops:    k.Dev.Drops(),
			txed:     k.Dev.TxPackets(),
		}
		for _, p := range k.skbs {
			v.skbs = append(v.skbs, packet{p.addr, p.data, p.len, p.queue, p.onTxComplete != nil})
		}
		for i, q := range k.Dev.Tx {
			v.fifos = append(v.fifos, append([]SKB(nil), q.fifo...))
			v.rings = append(v.rings, append([]SKB(nil), k.Dev.rx[i]...))
			v.draining = append(v.draining, q.draining)
		}
		return v
	}
	// runOn lets the drain, the wire completions and the TIME_WAIT free
	// fire, serves and frees everything else the checkpoint holds,
	// allocates into the freed slots, and appends one element to each
	// queue. It
	// returns the simulated addresses it allocated.
	runOn := func() []uint64 {
		var addrs []uint64
		m.Schedule(0, runAt, func(c *sim.Ctx) {
			k.KfreeSKB(c, sk.Recvmsg(c, 64))
			accepted.ReadRequest(c, 64)
			accepted.SendResponse(c, 200, nil) // queued on TX queue 0
			accepted.Close(c)
			queued := l.Accept(c)
			queued.ReadRequest(c, 64)
			queued.Close(c)
			for i := 0; i < 3; i++ {
				s := k.AllocSKB(c, i == 1)
				addrs = append(addrs, k.skb(s).addr, k.skb(s).data)
				k.KfreeSKB(c, s)
			}
			conn := l.RxSyn(c, k.Dev.RxDeliver(c, 0, 128))
			addrs = append(addrs, conn.sock().addr)
		})
		m.Schedule(1, runAt, func(c *sim.Ctx) {
			s := k.Dev.RxDeliver(c, 1, 60)
			addrs = append(addrs, k.skb(s).addr)
			k.UDPRcv(c, s, 9000)
		})
		m.Run(runTo)
		return addrs
	}

	want := view()
	if len(want.fifos[0]) != 3 || want.txed != 4 || want.drops != 1 || len(want.udp) != 1 ||
		len(want.acceptQ) != 1 || want.refused != 1 || accepted.sock().reqSKB.None() {
		t.Fatalf("checkpoint does not hold every kind of packet and connection: %+v", want)
	}
	snap := m.Snapshot()
	wantAddrs := runOn()
	wantAfter := view()
	if reflect.DeepEqual(wantAfter, want) {
		t.Fatal("the run after the checkpoint changed nothing")
	}
	later := m.Snapshot()
	for round := 1; round <= 2; round++ {
		m.Restore(snap)
		if got := view(); !reflect.DeepEqual(got, want) {
			t.Errorf("restore %d: kernel state\n got %+v\nwant %+v", round, got, want)
		}
		if addrs := runOn(); !reflect.DeepEqual(addrs, wantAddrs) {
			t.Errorf("restore %d: allocated addresses %x, want %x", round, addrs, wantAddrs)
		}
		if got := view(); !reflect.DeepEqual(got, wantAfter) {
			t.Errorf("restore %d: state after the replay\n got %+v\nwant %+v", round, got, wantAfter)
		}
	}

	m.Restore(snap)
	m.Schedule(0, runAt, func(c *sim.Ctx) {
		for i := 0; i < 8; i++ {
			k.AllocSKB(c, false) // shift the slots the appends below take
		}
		l.RxSyn(c, k.Dev.RxDeliver(c, 0, 128))
		k.UDPRcv(c, k.Dev.RxDeliver(c, 0, 80), 9000)
		sk.Sendmsg(c, 50, nil)
	})
	m.Run(runTo)
	m.Restore(later)
	if got := view(); !reflect.DeepEqual(got, wantAfter) {
		t.Errorf("restore after a divergent run: kernel state\n got %+v\nwant %+v", got, wantAfter)
	}
}

// TestArenasAllocateNothingInSteadyState: once the arenas have grown,
// allocating and freeing a packet, and a connection's arrival, accept and
// close, reuse freed slots and allocate no Go memory.
func TestArenasAllocateNothingInSteadyState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxQueues = 1
	m, k := testKernel(1, cfg)
	c := m.Ctx(0)
	l := k.NewListener(c, 80, 0, 4)
	if n := testing.AllocsPerRun(100, func() { k.KfreeSKB(c, k.AllocSKB(c, false)) }); n != 0 {
		t.Errorf("AllocSKB+KfreeSKB allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		l.RxSyn(c, k.AllocSKB(c, false))
		l.Accept(c).Close(c)
	}); n != 0 {
		t.Errorf("RxSyn+Accept+Close allocates %.1f objects, want 0", n)
	}
}
