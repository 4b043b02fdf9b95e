package kernel

import (
	"dprof/internal/lockstat"
	"dprof/internal/sim"
)

// futexBuckets is the size of the global futex hash table. It is
// intentionally smaller than the core count so that different instances'
// futexes collide on buckets — the cross-core futex-lock contention that
// dominates the paper's Apache lock-stat output (Table 6.6).
const futexBuckets = 8

// FutexTable is the kernel's global futex hash table. User-space queue
// implementations (Apache's worker queues) wake and wait through it.
type FutexTable struct {
	k     *Kernel
	addrs []uint64
	locks []lockstat.Lock
}

func newFutexTable(k *Kernel) *FutexTable {
	_, addrs := k.Alloc.StaticArray("futex_queues", 64, futexBuckets, "futex hash buckets")
	class := k.Locks.Class("futex lock")
	f := &FutexTable{k: k, addrs: addrs}
	for _, a := range addrs {
		f.locks = append(f.locks, *lockstat.NewLock(class, a))
	}
	sim.RewindSlices(k.M, &f.locks)
	return f
}

func (f *FutexTable) bucket(key uint64) int { return int(key % futexBuckets) }

// Wait records a waiter on the futex identified by key (the blocking half of
// a user-space queue handoff).
func (f *FutexTable) Wait(c *sim.Ctx, key uint64) {
	defer c.Leave(c.EnterPC(pcDoFutex))
	func() {
		defer c.Leave(c.EnterPC(pcFutexWait))
		b := f.bucket(key)
		f.locks[b].Acquire(c)
		c.Read(f.addrs[b]+8, 8)
		c.Write(f.addrs[b]+16, 16) // enqueue the waiter
		f.locks[b].Release(c)
	}()
}

// Wake wakes waiters on the futex identified by key.
func (f *FutexTable) Wake(c *sim.Ctx, key uint64) {
	defer c.Leave(c.EnterPC(pcDoFutex))
	func() {
		defer c.Leave(c.EnterPC(pcFutexWake))
		b := f.bucket(key)
		f.locks[b].Acquire(c)
		c.Read(f.addrs[b]+8, 16)
		c.Write(f.addrs[b]+16, 8) // unlink the waiter
		f.locks[b].Release(c)
	}()
}
