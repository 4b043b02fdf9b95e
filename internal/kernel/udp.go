package kernel

import (
	"fmt"

	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// Offsets within the udp_sock structure.
const (
	UDPOffLock = 0
	UDPOffRxQ  = 16
	UDPOffRmem = 64
	UDPOffWmem = 72
)

// UDPSock is a bound UDP socket owned by one application instance.
type UDPSock struct {
	k     *Kernel
	Addr  uint64
	Port  int
	Core  int
	Epoll *EventPoll
	lock  lockstat.Lock

	rxq       []SKB
	txSinceWS uint32 // transmits since the last write-space wake
}

// NewUDPSock creates and binds a UDP socket on the given core's instance.
// The socket registers its state for checkpoints when it is created, so
// bind it while the workload is built: a checkpoint taken earlier does not
// rewind it.
func (k *Kernel) NewUDPSock(c *sim.Ctx, port, core int) *UDPSock {
	if _, dup := k.udpPorts[port]; dup {
		panic(fmt.Sprintf("kernel: UDP port %d already bound", port))
	}
	addr := k.Alloc.Alloc(c, k.UDPSockType)
	c.Write(addr, 64) // socket init
	sk := &UDPSock{
		k:     k,
		Addr:  addr,
		Port:  port,
		Core:  core,
		Epoll: k.epolls[core],
		lock:  *lockstat.NewLock(k.sockLockClass, addr+UDPOffLock),
	}
	k.udpPorts[port] = sk
	sim.RewindValues(k.M, sk)
	sim.RewindSlices(k.M, &sk.rxq)
	return sk
}

// RxQueueLen returns the receive queue depth.
func (sk *UDPSock) RxQueueLen() int { return len(sk.rxq) }

func (sk *UDPSock) lockSock(c *sim.Ctx) {
	defer c.Leave(c.EnterPC(pcLockSockNested))
	sk.lock.Acquire(c)
}

// UDPRcv delivers an skb (already through ip_rcv) to the socket bound on
// port: socket lookup, receive-queue append, and the readiness wake.
func (k *Kernel) UDPRcv(c *sim.Ctx, skb SKB, port int) {
	sk := k.udpPorts[port]
	if sk == nil {
		k.KfreeSKB(c, skb)
		return
	}
	defer c.Leave(c.EnterPC(pcUdpRcv))
	p := k.skb(skb)
	c.Read(p.data+34, 8) // UDP header
	c.Compute(400)       // checksum validation, socket lookup
	sk.lockSock(c)
	c.Read(sk.Addr+UDPOffRmem, 8)
	c.Write(sk.Addr+UDPOffRmem, 8)
	c.Write(sk.Addr+UDPOffRxQ, 16)
	c.Write(p.addr+SkbOffNext, 8)
	sk.rxq = append(sk.rxq, skb)
	sk.lock.Release(c)
	func() {
		defer c.Leave(c.EnterPC(pcSockDefReadable))
		k.EpollWake(c, sk.Epoll)
	}()
}

// Recvmsg dequeues one datagram and copies readLen bytes of it to user
// space. It returns the zero SKB if the queue is empty.
func (sk *UDPSock) Recvmsg(c *sim.Ctx, readLen uint32) SKB {
	defer c.Leave(c.EnterPC(pcUdpRecvmsg))
	sk.lockSock(c)
	if len(sk.rxq) == 0 {
		sk.lock.Release(c)
		return SKB{}
	}
	skb := sk.rxq[0]
	sk.rxq = sk.rxq[1:]
	c.Read(sk.Addr+UDPOffRxQ, 16)
	c.Write(sk.Addr+UDPOffRxQ, 8)
	c.Read(sk.k.skb(skb).addr, 32)
	c.Write(sk.Addr+UDPOffRmem, 8)
	sk.lock.Release(c)
	c.Compute(700) // syscall entry/exit, msghdr setup
	sk.k.Getnstimeofday(c)
	sk.k.SkbCopyDatagramIovec(c, skb, readLen)
	return skb
}

// Sendmsg builds and transmits a datagram of n payload bytes. onComplete, if
// non-nil, runs on the TX-completion core after the wire accepts the packet.
// It returns false if the qdisc dropped the packet.
func (sk *UDPSock) Sendmsg(c *sim.Ctx, n uint32, onComplete func(*sim.Ctx)) bool {
	defer c.Leave(c.EnterPC(pcUdpSendmsg))
	c.Compute(1400) // syscall entry/exit, route lookup, header build
	k := sk.k
	sk.lockSock(c)
	skb := k.AllocSKB(c, false)
	p := k.skb(skb)
	k.SkbPut(c, skb, 42+n)
	c.Write(p.data, 42) // ethernet+IP+UDP headers
	k.CopyToPayload(c, skb, 42, n)
	p.len = 42 + n
	c.Write(sk.Addr+UDPOffWmem, 8)
	sk.lock.Release(c)

	p.onTxComplete = func(cc *sim.Ctx) {
		func() {
			defer cc.Leave(cc.EnterPC(pcSockDefWriteSpace))
			cc.Read(sk.Addr+UDPOffWmem, 8)
			cc.Write(sk.Addr+UDPOffWmem, 8)
			// The full EPOLLOUT wake only fires when enough write space
			// drains (sk_stream_write_space's SOCK_NOSPACE behaviour);
			// most completions just update the accounting.
			sk.txSinceWS++
			if sk.txSinceWS >= 4 {
				sk.txSinceWS = 0
				k.EpollWake(cc, sk.Epoll)
			}
		}()
		if onComplete != nil {
			onComplete(cc)
		}
	}
	return k.Dev.DevQueueXmit(c, skb)
}
