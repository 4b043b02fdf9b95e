package cache

import (
	"sync"
	"unsafe"
)

// recycler hands dense arrays from released hierarchies to the next
// hierarchy that needs an array of the same length: a Restore into a
// released hierarchy, or a newBank or newDirTable. It keeps one sync.Pool
// per length, so the GC drops an idle stock and no finished server's
// arrays outlive it. Only Release feeds it.
type recycler[T any] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

var (
	wayArrays recycler[way]
	dirArrays recycler[dirEntry]
)

// pool returns the pool for arrays of length n, creating it on first use.
func (r *recycler[T]) pool(n int) *sync.Pool {
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

// get returns a zeroed array of length n. Only a recycled array is cleared:
// a fresh one from make is left untouched, so the pages a sparse bank never
// fills stay unmapped.
func (r *recycler[T]) get(n int) []T {
	if p, ok := r.pool(n).Get().(*T); ok {
		a := unsafe.Slice(p, n)
		clear(a)
		return a
	}
	return make([]T, n)
}

// put stocks a, dirty, for a later get of its length. The pool holds a
// pointer to the first element, which keeps the whole array alive without
// boxing a slice header.
func (r *recycler[T]) put(a []T) {
	if len(a) > 0 {
		r.pool(len(a)).Put(&a[0])
	}
}

// reuse returns dense cleared when it already has length n, else a zeroed
// array of length n from the recycler: dense was released, or it is a table
// that grew (or a fresh one) and goes to the GC.
func (r *recycler[T]) reuse(dense []T, n int) []T {
	if len(dense) == n {
		clear(dense)
		return dense
	}
	return r.get(n)
}
