package kernel

import (
	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// WaitQueue is a kernel wait queue head with its own lock.
type WaitQueue struct {
	Addr uint64
	Lock lockstat.Lock
}

// EventPoll is one epoll instance (each application instance owns one, pinned
// to its core). Socket readiness events from the RX path and from TX
// completion both land here, so with the buggy TX queue selection the epoll
// lock is taken from remote cores — one of the lock-stat rows in Table 6.2.
type EventPoll struct {
	Core int
	Addr uint64
	Lock lockstat.Lock
	WQ   WaitQueue

	ready int

	// Wakeup, if set, is invoked (outside the locks) when the ready count
	// transitions from zero; applications use it to schedule their event
	// loop task.
	Wakeup func(*sim.Ctx)
}

func (k *Kernel) initEpoll() {
	n := k.M.NumCores()
	epClass := k.Locks.Class("epoll lock")
	wqClass := k.Locks.Class("wait queue")
	_, epAddrs := k.Alloc.StaticArray("eventpoll", 192, n, "event poll instance")
	_, wqAddrs := k.Alloc.StaticArray("wait_queue_head", 64, n, "wait queue head")
	for i := 0; i < n; i++ {
		k.epolls = append(k.epolls, &EventPoll{
			Core: i,
			Addr: epAddrs[i],
			Lock: *lockstat.NewLock(epClass, epAddrs[i]),
			WQ:   WaitQueue{Addr: wqAddrs[i], Lock: *lockstat.NewLock(wqClass, wqAddrs[i])},
		})
	}
	sim.RewindValues(k.M, k.epolls...)
}

// Epoll returns core i's epoll instance.
func (k *Kernel) Epoll(i int) *EventPoll { return k.epolls[i] }

// EpollWake posts a readiness event to ep and wakes its waiter — the
// sock_def_readable → ep_poll_callback → __wake_up_sync_key chain.
func (k *Kernel) EpollWake(c *sim.Ctx, ep *EventPoll) {
	var wake bool
	func() {
		defer c.Leave(c.EnterPC(pcEpPollCallback))
		ep.Lock.Acquire(c)
		c.Read(ep.Addr+8, 8)    // ready list head
		c.Write(ep.Addr+16, 16) // link the epitem
		ep.ready++
		wake = ep.ready == 1
		ep.Lock.Release(c)
	}()
	// __wake_up walks the waiter list under the wait-queue lock on every
	// event (even when nobody needs waking), which is where the paper's
	// "wait queue" lock-stat row comes from.
	func() {
		defer c.Leave(c.EnterPC(pcWakeUpSyncKey))
		ep.WQ.Lock.Acquire(c)
		c.Read(ep.WQ.Addr+8, 8)
		if wake {
			c.Write(ep.WQ.Addr+16, 8)
		}
		ep.WQ.Lock.Release(c)
	}()
	if wake && ep.Wakeup != nil {
		ep.Wakeup(c)
	}
}

// EpollWait drains and returns the pending readiness count — sys_epoll_wait
// with its ep_scan_ready_list pass.
func (k *Kernel) EpollWait(c *sim.Ctx, ep *EventPoll) int {
	defer c.Leave(c.EnterPC(pcSysEpollWait))
	ep.Lock.Acquire(c)
	n := ep.ready
	func() {
		defer c.Leave(c.EnterPC(pcEpScanReadyList))
		c.Read(ep.Addr+8, 16)
		c.Write(ep.Addr+8, 16)
		ep.ready = 0
	}()
	ep.Lock.Release(c)
	return n
}
