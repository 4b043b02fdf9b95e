package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// lru is the profile store: finished response bodies keyed by content
// address. Bodies are immutable once inserted, so readers share the slice.
// Each entry also memoizes its body's pprof form (see pprof) and the
// spelling of the request that last resolved to it (see alias).
type lru struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	aliases   map[alias]*list.Element // at most one per entry
	evictions uint64
	encodes   uint64 // pprof forms derived (GET /stats "pprof_encodes")
	memoHits  uint64 // pprof forms served from a memo ("pprof_memo_hits")
	aliasHits uint64 // bodies served by spelling ("alias_hits")
}

// alias is a request's spelling: its route and the SHA-256 of its raw
// body.
type alias struct {
	route string
	sum   [sha256.Size]byte
}

type lruItem struct {
	key  string
	body []byte
	// pprof is body's pprof form, derived on the first pprof request while
	// the entry is resident; nil until then. It lives and dies with the
	// entry: replacing the body or evicting the entry drops it.
	pprof []byte
	// alias is the latest spelling that resolved to key, when aliased; doc
	// records whether pprof negotiation applies to that route. Like pprof,
	// it lives and dies with the entry.
	alias   alias
	aliased bool
	doc     bool
}

func newLRU(capacity int) *lru {
	return &lru{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element, capacity),
		aliases: make(map[alias]*list.Element, capacity),
	}
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
		it := el.Value.(*lruItem)
		it.body, it.pprof = body, nil
		c.unalias(it)
		return
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		it := oldest.Value.(*lruItem)
		delete(c.items, it.key)
		c.unalias(it)
		c.evictions++
	}
}

// byAlias returns the entry a spelling last resolved to, marking it most
// recently used: its address, its body and whether pprof negotiation
// applies. A hit is counted.
func (c *lru) byAlias(a alias) (key string, body []byte, doc bool, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.aliases[a]
	if !ok {
		return "", nil, false, false
	}
	c.ll.MoveToFront(el)
	c.aliasHits++
	it := el.Value.(*lruItem)
	return it.key, it.body, it.doc, true
}

// alias records a as the spelling of key's entry, replacing the entry's
// previous one, when the entry is resident; otherwise it does nothing, so
// an alias never outlives the body it names. The caller must have
// normalized the very request a spells to key.
func (c *lru) alias(a alias, key string, doc bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	it := el.Value.(*lruItem)
	c.unalias(it)
	it.alias, it.aliased, it.doc = a, true, doc
	c.aliases[a] = el
}

// unalias drops the entry's alias, if any. c.mu must be held.
func (c *lru) unalias(it *lruItem) {
	if it.aliased {
		delete(c.aliases, it.alias)
		it.aliased = false
	}
}

// pprof returns the pprof form of body, a body fetched for key: the
// entry's memo when key's entry holds this very slice, else a fresh
// encodePprof, which is memoized if the entry still holds it. A body that
// is not resident (evicted since it was fetched) is encoded on every call,
// and a failed encode is never kept. Concurrent first requests for one key
// may each encode; the memo keeps one of the identical results.
func (c *lru) pprof(key string, body []byte) ([]byte, error) {
	c.mu.Lock()
	if it := c.holding(key, body); it != nil && it.pprof != nil {
		c.memoHits++
		gz := it.pprof
		c.mu.Unlock()
		return gz, nil
	}
	c.mu.Unlock()
	gz, err := encodePprof(body)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encodes++
	if it := c.holding(key, body); it != nil {
		it.pprof = gz
	}
	return gz, nil
}

// holding returns key's entry when it holds body itself, not an equal
// copy, so a memo always belongs to the bytes it was derived from. c.mu
// must be held.
func (c *lru) holding(key string, body []byte) *lruItem {
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	it := el.Value.(*lruItem)
	if len(it.body) != len(body) || len(body) > 0 && &it.body[0] != &body[0] {
		return nil
	}
	return it
}

// stats reports the LRU's own GET /stats counters: resident entries and
// aliases, bodies pushed out of the cold end, pprof forms derived and
// served from a memo, and bodies served by spelling.
func (c *lru) stats() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]any{
		"entries":         c.ll.Len(),
		"aliases":         len(c.aliases),
		"evictions":       c.evictions,
		"pprof_encodes":   c.encodes,
		"pprof_memo_hits": c.memoHits,
		"alias_hits":      c.aliasHits,
	}
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
