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

// TCPConn is a handle on an established (or establishing) connection in
// the kernel's connection arena. The zero TCPConn names no connection.
type TCPConn struct {
	k *Kernel
	i int32
}

// None reports whether conn names no connection.
func (conn TCPConn) None() bool { return conn.k == nil }

// tcpConn is one connection arena slot: a tcp_sock object plus the request
// data that arrived with it. A free slot is zero.
type tcpConn struct {
	addr uint64
	lock lockstat.Lock

	reqSKB  SKB    // request payload, queued until the worker reads it
	allocAt uint64 // cycle the tcp_sock was allocated (queue-delay metric)
}

// sock returns conn's arena slot. The pointer is valid until the next
// RxSyn, which may grow the arena.
func (conn TCPConn) sock() *tcpConn { return &conn.k.conns[conn.i] }

// Listener is a listening TCP socket with its accept backlog.
type Listener struct {
	k     *Kernel
	Port  int
	Core  int
	Addr  uint64 // the listener's own tcp_sock
	Epoll *EventPoll
	lock  lockstat.Lock

	Backlog int     // accept-queue limit; the §6.2 fix caps this low
	acceptQ []int32 // connection arena slots

	refused uint64
}

// NewListener creates a listening socket on core's instance. backlog is the
// accept-queue limit (Linux's somaxconn/backlog argument). The listener
// registers its state for checkpoints when it is created, so bind it while
// the workload is built: a checkpoint taken earlier does not rewind it.
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
		lock:    *lockstat.NewLock(k.sockLockClass, addr+TCPOffLock),
		Backlog: backlog,
	}
	k.tcpPorts[port] = l
	sim.RewindValues(k.M, l)
	sim.RewindSlices(k.M, &l.acceptQ)
	return l
}

// QueueLen returns the current accept-queue depth.
func (l *Listener) QueueLen() int { return len(l.acceptQ) }

// Refused returns how many connection attempts were dropped at a full
// backlog.
func (l *Listener) Refused() uint64 { return l.refused }

// RxSyn handles an arriving connection (SYN + request data) on the
// listener's core: tcp_v4_rcv, socket creation, and the accept-queue
// enqueue. reqSKB carries the client's request payload. It returns the
// zero TCPConn if the backlog was full and the connection was refused.
func (l *Listener) RxSyn(c *sim.Ctx, reqSKB SKB) TCPConn {
	k := l.k
	defer c.Leave(c.EnterPC(pcTcpV4Rcv))
	c.Read(k.skb(reqSKB).data+34, 16) // TCP header
	c.Read(l.Addr, 16)                // listener lookup hit
	if len(l.acceptQ) >= l.Backlog {
		l.refused++
		k.KfreeSKB(c, reqSKB)
		return TCPConn{}
	}
	conn := TCPConn{k: k}
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
		if n := len(k.connFree); n > 0 {
			conn.i, k.connFree = k.connFree[n-1], k.connFree[:n-1]
		} else {
			conn.i = int32(len(k.conns))
			k.conns = append(k.conns, tcpConn{})
		}
		*conn.sock() = tcpConn{
			addr:    addr,
			lock:    *lockstat.NewLock(k.sockLockClass, addr+TCPOffLock),
			reqSKB:  reqSKB,
			allocAt: c.Now(),
		}
		c.Write(addr+TCPOffRxQ+8, 16) // queue the request data
		c.Write(k.skb(reqSKB).addr+SkbOffNext, 8)
	}()
	k.ModTimer(c) // SYN-ACK retransmit timer
	l.lock.Acquire(c)
	c.Write(l.Addr+TCPOffRxQ, 16) // accept-queue tail
	l.acceptQ = append(l.acceptQ, conn.i)
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
// It returns the zero TCPConn if no connection is pending.
func (l *Listener) Accept(c *sim.Ctx) TCPConn {
	defer c.Leave(c.EnterPC(pcInetCskAccept))
	l.lock.Acquire(c)
	if len(l.acceptQ) == 0 {
		l.lock.Release(c)
		return TCPConn{}
	}
	conn := TCPConn{k: l.k, i: l.acceptQ[0]}
	l.acceptQ = l.acceptQ[1:]
	c.Write(l.Addr+TCPOffRxQ, 16)
	l.lock.Release(c)
	// Establish: read the socket state written at SYN time, then update it.
	addr := conn.sock().addr
	c.Read(addr, 64)
	c.Read(addr+TCPOffState, 64)
	c.Read(addr+TCPOffRxQ, 64)
	c.Write(addr+TCPOffState, 32)
	return conn
}

// QueueDelay returns cycles between the connection's arrival and now.
func (conn TCPConn) QueueDelay(c *sim.Ctx) uint64 {
	at := conn.sock().allocAt
	if c.Now() < at {
		return 0
	}
	return c.Now() - at
}

func (conn TCPConn) lockSock(c *sim.Ctx) {
	defer c.Leave(c.EnterPC(pcLockSockNested))
	conn.sock().lock.Acquire(c)
}

// ReadRequest consumes the request data queued on the connection, copying
// readLen bytes to user space, and frees the request skb.
func (conn TCPConn) ReadRequest(c *sim.Ctx, readLen uint32) {
	k := conn.k
	defer c.Leave(c.EnterPC(pcTcpRecvmsg))
	conn.lockSock(c)
	sock := conn.sock()
	skb := sock.reqSKB
	sock.reqSKB = SKB{}
	c.Read(sock.addr+TCPOffRxQ, 16)
	c.Write(sock.addr+TCPOffRxQ, 8)
	sock.lock.Release(c)
	if skb.None() {
		return
	}
	c.Read(k.skb(skb).addr, 32)
	k.SkbCopyDatagramIovec(c, skb, readLen)
	k.KfreeSKB(c, skb)
}

// SendResponse builds an fclone skb carrying n payload bytes and transmits
// it. onComplete runs on the TX-completion core.
func (conn TCPConn) SendResponse(c *sim.Ctx, n uint32, onComplete func(*sim.Ctx)) bool {
	k := conn.k
	defer c.Leave(c.EnterPC(pcTcpSendmsg))
	conn.lockSock(c)
	skb := k.AllocSKB(c, true)
	k.SkbPut(c, skb, 54+n)
	k.CopyToPayload(c, skb, 54, n)
	// The completion runs after the connection closes: it keeps the
	// tcp_sock's address, not the arena slot.
	addr := conn.sock().addr
	c.Write(addr+TCPOffSndQ, 16)
	var ok bool
	func() {
		defer c.Leave(c.EnterPC(pcTcpTransmitSkb))
		p := k.skb(skb)
		c.Write(p.data, 54) // ethernet+IP+TCP headers
		c.Write(addr+TCPOffStats, 16)
		p.len = 54 + n
		p.onTxComplete = func(cc *sim.Ctx) {
			func() {
				defer cc.Leave(cc.EnterPC(pcSockDefWriteSpace))
				cc.Read(addr+TCPOffSndQ, 8)
				cc.Write(addr+TCPOffSndQ, 8)
			}()
			if onComplete != nil {
				onComplete(cc)
			}
		}
		ok = k.Dev.DevQueueXmit(c, skb)
	}()
	conn.sock().lock.Release(c)
	return ok
}

// Close tears the connection down. The tcp_sock is freed immediately, or
// after Config.TimeWait cycles if a TIME_WAIT linger is configured (the
// lingering sockets are part of Apache's steady-state working set). The
// arena slot is zeroed and freed at once; the TIME_WAIT free keeps only the
// tcp_sock's address.
func (conn TCPConn) Close(c *sim.Ctx) {
	k := conn.k
	sock := conn.sock()
	addr, req := sock.addr, sock.reqSKB
	if addr == 0 {
		panic("kernel: double close of TCP connection")
	}
	*sock = tcpConn{}
	k.connFree = append(k.connFree, conn.i)
	defer c.Leave(c.EnterPC(pcTcpClose))
	if !req.None() {
		k.KfreeSKB(c, req)
	}
	c.Write(addr+TCPOffState, 16)
	k.ModTimer(c) // FIN/TIME_WAIT timer
	if k.Cfg.TimeWait > 0 {
		c.Spawn(c.Core.ID, k.Cfg.TimeWait, func(cc *sim.Ctx) {
			defer cc.Leave(cc.EnterPC(pcInetTwskDeschedule))
			k.Alloc.Free(cc, addr)
		})
		return
	}
	k.Alloc.Free(c, addr)
}
