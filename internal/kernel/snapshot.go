package kernel

import (
	"unsafe"

	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// Kernel implements sim.Snapshotter: a warm-start checkpoint captures the
// whole network substrate — qdisc fifos, RX rings, in-flight TX packets, UDP
// receive queues, TCP accept backlogs, epoll/wait-queue/futex lock words —
// at a task boundary. All kernel state mutation happens inside simulated
// tasks, so at a boundary the enumerable queues above (plus the in-flight
// set, whose completion events hold live *SKB pointers in the wheel) reach
// every object a resumed run can touch: a workload holds an accepted
// connection only inside the task that serves it. Lock words are copied as
// whole lockstat.Lock values; packets and connections, of which there are
// many, by their narrow SKBState/TCPConnState records.

// SKBState is the mutable part of an SKB (identity fields Addr/Data/Type are
// set once at allocation).
type SKBState struct {
	Len          uint32
	Queue        int
	OnTxComplete func(*sim.Ctx)
}

// State captures the skb's mutable fields.
func (s *SKB) State() SKBState {
	return SKBState{Len: s.Len, Queue: s.Queue, OnTxComplete: s.OnTxComplete}
}

// SetState rewinds the skb's mutable fields.
func (s *SKB) SetState(st SKBState) {
	s.Len = st.Len
	s.Queue = st.Queue
	s.OnTxComplete = st.OnTxComplete
}

// TCPConnState is the mutable part of a TCPConn.
type TCPConnState struct {
	ReqSKB *SKB
	Closed bool
	Lock   lockstat.Lock
}

// State captures the connection's mutable fields.
func (conn *TCPConn) State() TCPConnState {
	return TCPConnState{ReqSKB: conn.ReqSKB, Closed: conn.closed, Lock: conn.lock}
}

// SetState rewinds the connection's mutable fields.
func (conn *TCPConn) SetState(st TCPConnState) {
	conn.ReqSKB = st.ReqSKB
	conn.closed = st.Closed
	conn.lock = st.Lock
}

type txQueueState struct {
	fifo     []*SKB
	draining bool
	lock     lockstat.Lock
}

type udpState struct {
	rxq       []*SKB
	txSinceWS uint32
	lock      lockstat.Lock
}

type listenerState struct {
	acceptQ []*TCPConn
	refused uint64
	lock    lockstat.Lock
}

type epollState struct {
	ready  int
	wakeup func(*sim.Ctx)
	lock   lockstat.Lock
	wqLock lockstat.Lock
}

type kernelState struct {
	tx        []txQueueState
	rx        [][]*SKB
	txPackets uint64
	rxPackets uint64
	drops     uint64
	inflight  []*SKB

	// skbs captures the mutable fields of every SKB reachable from the
	// queues above, once each; conns likewise for accept-queue connections.
	skbs  []skbState
	conns []connState

	udp       map[int]udpState
	listeners map[int]listenerState
	epolls    []epollState
	futex     []lockstat.Lock

	liveSKBs, liveConns int
}

type skbState struct {
	s  *SKB
	st SKBState
}

type connState struct {
	c  *TCPConn
	st TCPConnState
}

// Sizes of the Go objects behind a simulated packet and connection.
const (
	skbBytes  = uint64(unsafe.Sizeof(SKB{}))
	connBytes = uint64(unsafe.Sizeof(TCPConn{}))
	lockBytes = uint64(unsafe.Sizeof(lockstat.Lock{}))
)

// Bytes implements sim.State: the state's arrays and maps, and the packets
// and connections whose fields it records, which it keeps alive.
func (st *kernelState) Bytes() uint64 {
	n := uint64(unsafe.Sizeof(*st)) + sim.SliceBytes(st.tx) + sim.SliceBytes(st.rx) +
		sim.SliceBytes(st.inflight) + sim.SliceBytes(st.skbs) + sim.SliceBytes(st.conns) +
		sim.MapBytes(st.udp) + sim.MapBytes(st.listeners) + sim.SliceBytes(st.epolls) +
		sim.SliceBytes(st.futex) + uint64(len(st.skbs))*skbBytes + uint64(len(st.conns))*connBytes
	for i := range st.tx {
		n += sim.SliceBytes(st.tx[i].fifo)
	}
	for _, r := range st.rx {
		n += sim.SliceBytes(r)
	}
	for _, us := range st.udp {
		n += sim.SliceBytes(us.rxq)
	}
	for _, ls := range st.listeners {
		n += sim.SliceBytes(ls.acceptQ)
	}
	return n
}

// LiveBytes implements sim.Snapshotter: the kernel's device, queues,
// sockets, epoll instances and futex table with their locks, and every
// packet and connection it has allocated and not yet freed. The lock
// registry is the allocator's to count.
func (k *Kernel) LiveBytes() uint64 {
	d := k.Dev
	n := uint64(unsafe.Sizeof(*k)) + sim.SliceBytes(k.tvecAddrs) + sim.MapBytes(k.udpPorts) +
		sim.MapBytes(k.tcpPorts) + uint64(unsafe.Sizeof(*d)) + sim.SliceBytes(d.Tx) +
		sim.SliceBytes(d.rx) + sim.MapBytes(d.inflight) +
		uint64(k.liveSKBs)*skbBytes + uint64(k.liveConns)*connBytes
	for _, q := range d.Tx {
		n += uint64(unsafe.Sizeof(*q)) + lockBytes + sim.SliceBytes(q.fifo)
	}
	for _, r := range d.rx {
		n += uint64(unsafe.Sizeof(*r)) + sim.SliceBytes(r.skbs)
	}
	for _, sk := range k.udpPorts {
		n += uint64(unsafe.Sizeof(*sk)) + lockBytes + sim.SliceBytes(sk.rxq)
	}
	for _, l := range k.tcpPorts {
		n += uint64(unsafe.Sizeof(*l)) + lockBytes + sim.SliceBytes(l.acceptQ)
	}
	n += sim.SliceBytes(k.epolls)
	for _, ep := range k.epolls {
		n += uint64(unsafe.Sizeof(*ep)+unsafe.Sizeof(*ep.WQ)) + 2*lockBytes
	}
	f := k.Futex
	return n + uint64(unsafe.Sizeof(*f)) + sim.SliceBytes(f.addrs) + sim.SliceBytes(f.locks) +
		uint64(len(f.locks))*lockBytes
}

// SnapshotState deep-copies the kernel's mutable state.
func (k *Kernel) SnapshotState() sim.State {
	d := k.Dev
	st := &kernelState{
		tx:        make([]txQueueState, len(d.Tx)),
		rx:        make([][]*SKB, len(d.rx)),
		txPackets: d.txPackets,
		rxPackets: d.rxPackets,
		drops:     d.drops,
		udp:       make(map[int]udpState, len(k.udpPorts)),
		listeners: make(map[int]listenerState, len(k.tcpPorts)),
		epolls:    make([]epollState, len(k.epolls)),
		futex:     make([]lockstat.Lock, len(k.Futex.locks)),
		liveSKBs:  k.liveSKBs,
		liveConns: k.liveConns,
	}
	seen := make(map[*SKB]bool)
	noteSKB := func(s *SKB) {
		if s != nil && !seen[s] {
			seen[s] = true
			st.skbs = append(st.skbs, skbState{s, s.State()})
		}
	}
	for i, q := range d.Tx {
		st.tx[i] = txQueueState{
			fifo:     append([]*SKB(nil), q.fifo...),
			draining: q.draining,
			lock:     *q.Lock,
		}
		for _, s := range q.fifo {
			noteSKB(s)
		}
	}
	for i, r := range d.rx {
		st.rx[i] = append([]*SKB(nil), r.skbs...)
		for _, s := range r.skbs {
			noteSKB(s)
		}
	}
	for s := range d.inflight {
		st.inflight = append(st.inflight, s)
		noteSKB(s)
	}
	for port, sk := range k.udpPorts {
		st.udp[port] = udpState{
			rxq:       append([]*SKB(nil), sk.rxq...),
			txSinceWS: sk.txSinceWS,
			lock:      *sk.lock,
		}
		for _, s := range sk.rxq {
			noteSKB(s)
		}
	}
	for port, l := range k.tcpPorts {
		st.listeners[port] = listenerState{
			acceptQ: append([]*TCPConn(nil), l.acceptQ...),
			refused: l.refused,
			lock:    *l.lock,
		}
		// A connection sits in one listener's queue, once.
		for _, conn := range l.acceptQ {
			st.conns = append(st.conns, connState{conn, conn.State()})
			noteSKB(conn.ReqSKB)
		}
	}
	for i, ep := range k.epolls {
		st.epolls[i] = epollState{
			ready:  ep.ready,
			wakeup: ep.Wakeup,
			lock:   *ep.Lock,
			wqLock: *ep.WQ.Lock,
		}
	}
	for i, l := range k.Futex.locks {
		st.futex[i] = *l
	}
	return st
}

// RestoreState rewinds the kernel to a state captured by SnapshotState.
// Sockets bound after the checkpoint are unbound again (a deterministic
// re-run re-binds them identically).
func (k *Kernel) RestoreState(state sim.State) {
	st := state.(*kernelState)
	d := k.Dev
	for i, q := range d.Tx {
		qs := &st.tx[i]
		q.fifo = append(q.fifo[:0], qs.fifo...)
		q.draining = qs.draining
		*q.Lock = qs.lock
	}
	for i, r := range d.rx {
		r.skbs = append(r.skbs[:0], st.rx[i]...)
	}
	d.txPackets = st.txPackets
	d.rxPackets = st.rxPackets
	d.drops = st.drops
	for s := range d.inflight {
		delete(d.inflight, s)
	}
	for _, s := range st.inflight {
		d.inflight[s] = struct{}{}
	}
	for _, ss := range st.skbs {
		ss.s.SetState(ss.st)
	}
	for _, cs := range st.conns {
		cs.c.SetState(cs.st)
	}
	k.liveSKBs = st.liveSKBs
	k.liveConns = st.liveConns
	for port := range k.udpPorts {
		if _, ok := st.udp[port]; !ok {
			delete(k.udpPorts, port)
		}
	}
	for port, us := range st.udp {
		sk := k.udpPorts[port]
		sk.rxq = append(sk.rxq[:0], us.rxq...)
		sk.txSinceWS = us.txSinceWS
		*sk.lock = us.lock
	}
	for port := range k.tcpPorts {
		if _, ok := st.listeners[port]; !ok {
			delete(k.tcpPorts, port)
		}
	}
	for port, ls := range st.listeners {
		l := k.tcpPorts[port]
		l.acceptQ = append(l.acceptQ[:0], ls.acceptQ...)
		l.refused = ls.refused
		*l.lock = ls.lock
	}
	for i, ep := range k.epolls {
		es := &st.epolls[i]
		ep.ready = es.ready
		ep.Wakeup = es.wakeup
		*ep.Lock = es.lock
		*ep.WQ.Lock = es.wqLock
	}
	for i, l := range k.Futex.locks {
		*l = st.futex[i]
	}
}
