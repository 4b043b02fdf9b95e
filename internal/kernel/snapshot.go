package kernel

import (
	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// Kernel implements sim.Snapshotter: a warm-start checkpoint captures the
// whole network substrate — qdisc fifos, RX rings, in-flight TX packets, UDP
// receive queues, TCP accept backlogs, epoll/wait-queue/futex lock words —
// at a task boundary. All kernel state mutation happens inside simulated
// tasks, so at a boundary the enumerable queues above (plus the in-flight
// set, whose completion events hold live *SKB pointers in the wheel) reach
// every object a resumed run can touch. Connections already handed to
// application workers are the application's state and are captured by the
// workload's own snapshotter via TCPConn.State/SKB.State.

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

// TCPConnState is the mutable part of a TCPConn, for workload snapshotters
// holding accepted connections across the warmup boundary.
type TCPConnState struct {
	ReqSKB *SKB
	Closed bool
	Lock   lockstat.LockState
}

// State captures the connection's mutable fields.
func (conn *TCPConn) State() TCPConnState {
	return TCPConnState{ReqSKB: conn.ReqSKB, Closed: conn.closed, Lock: conn.lock.State()}
}

// SetState rewinds the connection's mutable fields.
func (conn *TCPConn) SetState(st TCPConnState) {
	conn.ReqSKB = st.ReqSKB
	conn.closed = st.Closed
	conn.lock.SetState(st.Lock)
}

type txQueueState struct {
	fifo     []*SKB
	draining bool
	lock     lockstat.LockState
}

type udpState struct {
	rxq       []*SKB
	txSinceWS uint32
	lock      lockstat.LockState
}

type listenerState struct {
	acceptQ []*TCPConn
	refused uint64
	lock    lockstat.LockState
}

type epollState struct {
	ready  int
	wakeup func(*sim.Ctx)
	lock   lockstat.LockState
	wqLock lockstat.LockState
}

type kernelState struct {
	tx        []txQueueState
	rx        [][]*SKB
	txPackets uint64
	rxPackets uint64
	drops     uint64
	inflight  []*SKB

	// skbs captures the mutable fields of every SKB reachable from the
	// queues above; conns likewise for accept-queue connections.
	skbs  map[*SKB]SKBState
	conns map[*TCPConn]TCPConnState

	udp       map[int]udpState
	listeners map[int]listenerState
	epolls    []epollState
	futex     []lockstat.LockState
}

// SnapshotState deep-copies the kernel's mutable state.
func (k *Kernel) SnapshotState() any {
	d := k.Dev
	st := &kernelState{
		tx:        make([]txQueueState, len(d.Tx)),
		rx:        make([][]*SKB, len(d.rx)),
		txPackets: d.txPackets,
		rxPackets: d.rxPackets,
		drops:     d.drops,
		skbs:      make(map[*SKB]SKBState),
		conns:     make(map[*TCPConn]TCPConnState),
		udp:       make(map[int]udpState, len(k.udpPorts)),
		listeners: make(map[int]listenerState, len(k.tcpPorts)),
		epolls:    make([]epollState, len(k.epolls)),
		futex:     make([]lockstat.LockState, len(k.Futex.locks)),
	}
	noteSKB := func(s *SKB) {
		if s != nil {
			if _, ok := st.skbs[s]; !ok {
				st.skbs[s] = s.State()
			}
		}
	}
	for i, q := range d.Tx {
		st.tx[i] = txQueueState{
			fifo:     append([]*SKB(nil), q.fifo...),
			draining: q.draining,
			lock:     q.Lock.State(),
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
			lock:      sk.lock.State(),
		}
		for _, s := range sk.rxq {
			noteSKB(s)
		}
	}
	for port, l := range k.tcpPorts {
		st.listeners[port] = listenerState{
			acceptQ: append([]*TCPConn(nil), l.acceptQ...),
			refused: l.refused,
			lock:    l.lock.State(),
		}
		for _, conn := range l.acceptQ {
			if _, ok := st.conns[conn]; !ok {
				st.conns[conn] = conn.State()
				noteSKB(conn.ReqSKB)
			}
		}
	}
	for i, ep := range k.epolls {
		st.epolls[i] = epollState{
			ready:  ep.ready,
			wakeup: ep.Wakeup,
			lock:   ep.Lock.State(),
			wqLock: ep.WQ.Lock.State(),
		}
	}
	for i, l := range k.Futex.locks {
		st.futex[i] = l.State()
	}
	return st
}

// RestoreState rewinds the kernel to a state captured by SnapshotState.
// Sockets bound after the checkpoint are unbound again (a deterministic
// re-run re-binds them identically).
func (k *Kernel) RestoreState(state any) {
	st := state.(*kernelState)
	d := k.Dev
	for i, q := range d.Tx {
		qs := &st.tx[i]
		q.fifo = append(q.fifo[:0], qs.fifo...)
		q.draining = qs.draining
		q.Lock.SetState(qs.lock)
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
	for s, ss := range st.skbs {
		s.SetState(ss)
	}
	for conn, cs := range st.conns {
		conn.SetState(cs)
	}
	for port := range k.udpPorts {
		if _, ok := st.udp[port]; !ok {
			delete(k.udpPorts, port)
		}
	}
	for port, us := range st.udp {
		sk := k.udpPorts[port]
		sk.rxq = append(sk.rxq[:0], us.rxq...)
		sk.txSinceWS = us.txSinceWS
		sk.lock.SetState(us.lock)
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
		l.lock.SetState(ls.lock)
	}
	for i, ep := range k.epolls {
		es := &st.epolls[i]
		ep.ready = es.ready
		ep.Wakeup = es.wakeup
		ep.Lock.SetState(es.lock)
		ep.WQ.Lock.SetState(es.wqLock)
	}
	for i, l := range k.Futex.locks {
		l.SetState(st.futex[i])
	}
}
