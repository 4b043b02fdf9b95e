package serve

import (
	"container/list"
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// lru is the profile store: finished response bodies keyed by content
// address. Bodies are immutable once inserted, so readers share the slice.
type lru struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions uint64
}

type lruItem struct {
	key  string
	body []byte
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity)}
}

// get returns the cached body and marks it most recently used.
func (c *lru) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem).body, true
}

// put inserts a body, evicting from the cold end past capacity.
func (c *lru) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruItem).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
		c.evictions++
	}
}

// evicted reports how many bodies have been pushed out of the cold end
// (for GET /stats).
func (c *lru) evicted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// len reports the resident entry count (for /healthz).
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flight is one in-progress computation shared by every request that asked
// for the same content address.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// flightGroup deduplicates concurrent computations (singleflight): N
// identical requests arriving together trigger exactly one simulation and
// share its bytes.
type flightGroup struct {
	mu     sync.Mutex
	m      map[string]*flight
	panics atomic.Int64 // runs that panicked (GET /stats "panics")
}

// do returns the result for key, computing it at most once no matter how
// many callers arrive concurrently. The computation runs detached on its
// own goroutine — its lifetime is whatever context run itself honors (the
// server's, not any one request's), so a caller disconnecting mid-run
// neither cancels the work other callers share nor loses the result for
// the cache. A run that panics is contained: the panic becomes every
// caller's error and the key is cleared, so the next call runs afresh.
// Each caller waits under its own ctx. leader reports whether this call
// launched the computation (false = deduplicated).
func (g *flightGroup) do(ctx context.Context, key string, run func() ([]byte, error)) (body []byte, err error, leader bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	f, found := g.m[key]
	if !found {
		f = &flight{done: make(chan struct{})}
		g.m[key] = f
		go func() {
			defer func() {
				if p := recover(); p != nil {
					g.panics.Add(1)
					log.Printf("serve: run for %s panicked: %v\n%s", key, p, debug.Stack())
					f.body, f.err = nil, fmt.Errorf("internal error: run for %s panicked: %v", key, p)
				}
				g.mu.Lock()
				delete(g.m, key)
				g.mu.Unlock()
				close(f.done)
			}()
			f.body, f.err = run()
		}()
	}
	g.mu.Unlock()
	select {
	case <-f.done:
		return f.body, f.err, !found
	case <-ctx.Done():
		return nil, ctx.Err(), !found
	}
}
