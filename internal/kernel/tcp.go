package kernel

import (
	"fmt"

	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// Offsets within the tcp_sock structure.
const (
	TCPOffLock  = 0
	TCPOffState = 128
	TCPOffRxQ   = 256
	TCPOffSndQ  = 512
	TCPOffStats = 1024
)

// TCPConn is an established (or establishing) connection: a tcp_sock object
// plus the request data that arrived with it.
type TCPConn struct {
	k    *Kernel
	Addr uint64
	lock lockstat.Lock

	ReqSKB  *SKB   // request payload, queued until the worker reads it
	AllocAt uint64 // cycle the tcp_sock was allocated (queue-delay metric)

	closed bool
}

// Listener is a listening TCP socket with its accept backlog.
type Listener struct {
	k     *Kernel
	Port  int
	Core  int
	Addr  uint64 // the listener's own tcp_sock
	Epoll *EventPoll
	lock  *lockstat.Lock

	Backlog int // accept-queue limit; the §6.2 fix caps this low
	acceptQ []*TCPConn

	refused uint64
}

// NewListener creates a listening socket on core's instance. backlog is the
// accept-queue limit (Linux's somaxconn/backlog argument).
func (k *Kernel) NewListener(c *sim.Ctx, port, core, backlog int) *Listener {
	if _, dup := k.tcpPorts[port]; dup {
		panic(fmt.Sprintf("kernel: TCP port %d already bound", port))
	}
	if backlog <= 0 {
		panic("kernel: listener backlog must be positive")
	}
	addr := k.Alloc.Alloc(c, k.TCPSockType)
	c.Write(addr, 64)
	l := &Listener{
		k:       k,
		Port:    port,
		Core:    core,
		Addr:    addr,
		Epoll:   k.epolls[core],
		lock:    lockstat.NewLock(k.sockLockClass, addr+TCPOffLock),
		Backlog: backlog,
	}
	k.tcpPorts[port] = l
	return l
}

// QueueLen returns the current accept-queue depth.
func (l *Listener) QueueLen() int { return len(l.acceptQ) }

// Refused returns how many connection attempts were dropped at a full
// backlog.
func (l *Listener) Refused() uint64 { return l.refused }

// RxSyn handles an arriving connection (SYN + request data) on the
// listener's core: tcp_v4_rcv, socket creation, and the accept-queue
// enqueue. reqSKB carries the client's request payload. It returns nil if
// the backlog was full and the connection was refused.
func (l *Listener) RxSyn(c *sim.Ctx, reqSKB *SKB) *TCPConn {
	k := l.k
	defer c.Leave(c.EnterPC(pcTcpV4Rcv))
	c.Read(reqSKB.Data+34, 16) // TCP header
	c.Read(l.Addr, 16)         // listener lookup hit
	if len(l.acceptQ) >= l.Backlog {
		l.refused++
		k.KfreeSKB(c, reqSKB)
		return nil
	}
	var conn *TCPConn
	func() {
		defer c.Leave(c.EnterPC(pcTcpV4SynRecvSock))
		addr := k.Alloc.Alloc(c, k.TCPSockType)
		// Initialize the new socket: the writes that put its lines into
		// this core's cache — the lines that will have gone cold by
		// accept time when the backlog is deep.
		c.Write(addr, 64)
		c.Write(addr+TCPOffState, 64)
		c.Write(addr+TCPOffRxQ, 64)
		c.Compute(200) // handshake bookkeeping
		conn = &TCPConn{
			k:       k,
			Addr:    addr,
			lock:    *lockstat.NewLock(k.sockLockClass, addr+TCPOffLock),
			ReqSKB:  reqSKB,
			AllocAt: c.Now(),
		}
		c.Write(addr+TCPOffRxQ+8, 16) // queue the request data
		c.Write(reqSKB.Addr+SkbOffNext, 8)
	}()
	k.liveConns++
	k.ModTimer(c) // SYN-ACK retransmit timer
	l.lock.Acquire(c)
	c.Write(l.Addr+TCPOffRxQ, 16) // accept-queue tail
	l.acceptQ = append(l.acceptQ, conn)
	l.lock.Release(c)
	func() {
		defer c.Leave(c.EnterPC(pcSockDefReadable))
		k.EpollWake(c, l.Epoll)
	}()
	return conn
}

// Accept dequeues the oldest pending connection (inet_csk_accept), touching
// the tcp_sock lines the way accept does — the reads whose latency Table 6.5
// reports growing from ~50 to ~150 cycles at drop-off.
func (l *Listener) Accept(c *sim.Ctx) *TCPConn {
	defer c.Leave(c.EnterPC(pcInetCskAccept))
	l.lock.Acquire(c)
	if len(l.acceptQ) == 0 {
		l.lock.Release(c)
		return nil
	}
	conn := l.acceptQ[0]
	l.acceptQ = l.acceptQ[1:]
	c.Write(l.Addr+TCPOffRxQ, 16)
	l.lock.Release(c)
	// Establish: read the socket state written at SYN time, then update it.
	c.Read(conn.Addr, 64)
	c.Read(conn.Addr+TCPOffState, 64)
	c.Read(conn.Addr+TCPOffRxQ, 64)
	c.Write(conn.Addr+TCPOffState, 32)
	return conn
}

// QueueDelay returns cycles between the connection's arrival and now.
func (conn *TCPConn) QueueDelay(c *sim.Ctx) uint64 {
	if c.Now() < conn.AllocAt {
		return 0
	}
	return c.Now() - conn.AllocAt
}

func (conn *TCPConn) lockSock(c *sim.Ctx) {
	defer c.Leave(c.EnterPC(pcLockSockNested))
	conn.lock.Acquire(c)
}

// ReadRequest consumes the request data queued on the connection, copying
// readLen bytes to user space, and frees the request skb.
func (conn *TCPConn) ReadRequest(c *sim.Ctx, readLen uint32) {
	defer c.Leave(c.EnterPC(pcTcpRecvmsg))
	conn.lockSock(c)
	skb := conn.ReqSKB
	conn.ReqSKB = nil
	c.Read(conn.Addr+TCPOffRxQ, 16)
	c.Write(conn.Addr+TCPOffRxQ, 8)
	conn.lock.Release(c)
	if skb == nil {
		return
	}
	c.Read(skb.Addr, 32)
	conn.k.SkbCopyDatagramIovec(c, skb, readLen)
	conn.k.KfreeSKB(c, skb)
}

// SendResponse builds an fclone skb carrying n payload bytes and transmits
// it. onComplete runs on the TX-completion core.
func (conn *TCPConn) SendResponse(c *sim.Ctx, n uint32, onComplete func(*sim.Ctx)) bool {
	k := conn.k
	defer c.Leave(c.EnterPC(pcTcpSendmsg))
	conn.lockSock(c)
	skb := k.AllocSKB(c, true)
	k.SkbPut(c, skb, 54+n)
	k.CopyToPayload(c, skb, 54, n)
	c.Write(conn.Addr+TCPOffSndQ, 16)
	var ok bool
	func() {
		defer c.Leave(c.EnterPC(pcTcpTransmitSkb))
		c.Write(skb.Data, 54) // ethernet+IP+TCP headers
		c.Write(conn.Addr+TCPOffStats, 16)
		skb.Len = 54 + n
		skb.OnTxComplete = func(cc *sim.Ctx) {
			func() {
				defer cc.Leave(cc.EnterPC(pcSockDefWriteSpace))
				cc.Read(conn.Addr+TCPOffSndQ, 8)
				cc.Write(conn.Addr+TCPOffSndQ, 8)
			}()
			if onComplete != nil {
				onComplete(cc)
			}
		}
		ok = k.Dev.DevQueueXmit(c, skb)
	}()
	conn.lock.Release(c)
	return ok
}

// Close tears the connection down. The tcp_sock is freed immediately, or
// after Config.TimeWait cycles if a TIME_WAIT linger is configured (the
// lingering sockets are part of Apache's steady-state working set).
func (conn *TCPConn) Close(c *sim.Ctx) {
	if conn.closed {
		panic("kernel: double close of TCP connection")
	}
	conn.closed = true
	conn.k.liveConns--
	defer c.Leave(c.EnterPC(pcTcpClose))
	if conn.ReqSKB != nil {
		conn.k.KfreeSKB(c, conn.ReqSKB)
		conn.ReqSKB = nil
	}
	c.Write(conn.Addr+TCPOffState, 16)
	k := conn.k
	k.ModTimer(c) // FIN/TIME_WAIT timer
	if k.Cfg.TimeWait > 0 {
		c.Spawn(c.Core.ID, k.Cfg.TimeWait, func(cc *sim.Ctx) {
			defer cc.Leave(cc.EnterPC(pcInetTwskDeschedule))
			k.Alloc.Free(cc, conn.Addr)
		})
		return
	}
	k.Alloc.Free(c, conn.Addr)
}
