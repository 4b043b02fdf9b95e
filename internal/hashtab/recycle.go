package hashtab

import (
	"sync"
	"unsafe"
)

// Recycler hands dense arrays released by one owner to the next owner that
// needs an array of the same length: a restore into a released table or
// cache bank, or a new one. It keeps one sync.Pool per length, so the GC
// drops an idle stock and no finished server's arrays outlive it. Only Put
// feeds it. A nil *Recycler makes every array fresh and drops what it is
// given.
type Recycler[T any] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

// pool returns the pool for arrays of length n, creating it on first use.
func (r *Recycler[T]) pool(n int) *sync.Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pools[n]
	if p == nil {
		if r.pools == nil {
			r.pools = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		r.pools[n] = p
	}
	return p
}

// Get returns a zeroed array of length n. Only a recycled array is cleared:
// a fresh one from make is left untouched, so the pages a sparse owner
// never fills stay unmapped.
func (r *Recycler[T]) Get(n int) []T {
	if r != nil {
		if p, ok := r.pool(n).Get().(*T); ok {
			a := unsafe.Slice(p, n)
			clear(a)
			return a
		}
	}
	return make([]T, n)
}

// Put stocks a, dirty, for a later Get of its length. The pool holds a
// pointer to the first element, which keeps the whole array alive without
// boxing a slice header.
func (r *Recycler[T]) Put(a []T) {
	if r != nil && len(a) > 0 {
		r.pool(len(a)).Put(&a[0])
	}
}

// GetOne returns a zeroed *T, for owners of fixed-size blocks: Get(1)'s
// element.
func (r *Recycler[T]) GetOne() *T { return &r.Get(1)[0] }

// PutOne stocks p, dirty, for a later GetOne.
func (r *Recycler[T]) PutOne(p *T) { r.Put(unsafe.Slice(p, 1)) }

// Reuse returns dense cleared when it already has length n, else a zeroed
// array of length n from Get: dense was released, or it is a table that
// grew (or a fresh one) and goes to the GC.
func (r *Recycler[T]) Reuse(dense []T, n int) []T {
	if len(dense) == n {
		clear(dense)
		return dense
	}
	return r.Get(n)
}
