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
//
// Those two derived forms outlive the body by one ghost generation: an
// evicted entry that holds either leaves a ghost, which keeps the address,
// the form, the alias and the SHA-256 of the body the form was derived
// from, but not the body. Ghosts have their own recency list, capped at
// the LRU's capacity. When the address is admitted again the new entry
// takes back the ghost's alias, and its pprof form only when the admitting
// path vouches for the body with a matching SHA-256. Every body is hashed
// and encoded outside mu.
type lru struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recently used
	items        map[string]*list.Element
	aliases      map[alias]*list.Element // resident entries' aliases, at most one per entry
	ghosts       *list.List              // evicted entries without their bodies; front = most recently evicted
	ghostKeys    map[string]*list.Element
	ghostAliases map[alias]*list.Element
	evictions    uint64
	encodes      uint64 // pprof forms derived (GET /stats "pprof_encodes")
	memoHits     uint64 // pprof forms served from a memo ("pprof_memo_hits")
	aliasHits    uint64 // bodies served by spelling ("alias_hits")
	ghostHits    uint64 // admissions that took back a ghost ("ghost_hits")
}

// alias is a request's spelling: its route and the SHA-256 of its raw
// body.
type alias struct {
	route string
	sum   [sha256.Size]byte
}

type lruItem struct {
	key  string
	body []byte // nil for a ghost
	// sum is the SHA-256 of body, when summed: vouched for by the path
	// that admitted the body, or computed when its pprof form was derived.
	sum    [sha256.Size]byte
	summed bool
	// pprof is body's pprof form, derived on the first pprof request while
	// the entry is resident; nil until then. Replacing the body drops it
	// unless both bodies are summed alike; eviction hands it to a ghost.
	pprof []byte
	// alias is the latest spelling that resolved to key, when aliased; doc
	// records whether pprof negotiation applies to that route. Like pprof,
	// it passes to the entry's ghost.
	alias   alias
	aliased bool
	doc     bool
}

func newLRU(capacity int) *lru {
	return &lru{
		cap:          capacity,
		ll:           list.New(),
		items:        make(map[string]*list.Element, capacity),
		aliases:      make(map[alias]*list.Element, capacity),
		ghosts:       list.New(),
		ghostKeys:    make(map[string]*list.Element, capacity),
		ghostAliases: make(map[alias]*list.Element, capacity),
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

// put inserts a body, evicting from the cold end past capacity. sum, when
// non-nil, is the body's SHA-256 as verified by the path that read it (the
// disk store); a run or a peer body comes without one. A body that
// replaces or re-admits key keeps the pprof form derived for key only when
// both sums are known and equal; a re-admitted body always takes back its
// ghost's alias.
func (c *lru) put(key string, body []byte, sum *[sha256.Size]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		it := el.Value.(*lruItem)
		if !it.vouches(sum) {
			it.pprof = nil
			c.unalias(it)
		}
		it.hold(body, sum)
		return
	}
	it := &lruItem{key: key}
	if el, ok := c.ghostKeys[key]; ok {
		it = c.dropGhost(el)
		if !it.vouches(sum) {
			it.pprof = nil
		}
		c.ghostHits++
	}
	it.hold(body, sum)
	el := c.ll.PushFront(it)
	c.items[key] = el
	if it.aliased {
		c.aliases[it.alias] = el
	}
	for c.ll.Len() > c.cap {
		old := c.ll.Remove(c.ll.Back()).(*lruItem)
		delete(c.items, old.key)
		if old.aliased {
			delete(c.aliases, old.alias)
		}
		c.evictions++
		c.haunt(old)
	}
}

// vouches reports whether the entry's pprof form, if any, was derived
// from a body whose SHA-256 is sum.
func (it *lruItem) vouches(sum *[sha256.Size]byte) bool {
	return sum != nil && it.summed && it.sum == *sum
}

// hold makes body, with its SHA-256 when sum is non-nil, the entry's body.
func (it *lruItem) hold(body []byte, sum *[sha256.Size]byte) {
	it.body, it.summed = body, sum != nil
	if sum != nil {
		it.sum = *sum
	}
}

// haunt leaves an evicted entry's ghost, when the entry derived a pprof
// form or an alias, dropping the coldest ghost past capacity. The entry's
// alias, if any, must already be gone from c.aliases. c.mu must be held.
func (c *lru) haunt(it *lruItem) {
	if it.pprof == nil && !it.aliased {
		return
	}
	it.body = nil
	el := c.ghosts.PushFront(it)
	c.ghostKeys[it.key] = el
	if it.aliased {
		c.ghostAliases[it.alias] = el
	}
	for c.ghosts.Len() > c.cap {
		c.dropGhost(c.ghosts.Back())
	}
}

// dropGhost removes a ghost from the list and its indexes and returns it.
// c.mu must be held.
func (c *lru) dropGhost(el *list.Element) *lruItem {
	g := c.ghosts.Remove(el).(*lruItem)
	delete(c.ghostKeys, g.key)
	if g.aliased {
		delete(c.ghostAliases, g.alias)
	}
	return g
}

// byAlias returns the entry a spelling last resolved to: its address,
// whether pprof negotiation applies and, when the entry is resident, its
// body, marking it most recently used and counting a hit. A spelling kept
// by a ghost returns the address with a nil body and resident false.
func (c *lru) byAlias(a alias) (key string, body []byte, doc, resident, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.aliases[a]; ok {
		c.ll.MoveToFront(el)
		c.aliasHits++
		it := el.Value.(*lruItem)
		return it.key, it.body, it.doc, true, true
	}
	if el, ok := c.ghostAliases[a]; ok {
		it := el.Value.(*lruItem)
		return it.key, nil, it.doc, false, true
	}
	return "", nil, false, false, false
}

// alias records a as the spelling of key's entry, replacing the entry's
// previous one, when the entry is resident; otherwise it does nothing, so
// an alias never names a body this server does not hold or remember. The
// caller must have normalized the very request a spells to key.
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

// unalias unindexes and drops a resident entry's alias, if any. c.mu must
// be held.
func (c *lru) unalias(it *lruItem) {
	if it.aliased {
		delete(c.aliases, it.alias)
		it.aliased = false
	}
}

// pprof returns the pprof form of body, a body fetched for key: the
// entry's memo when key's entry holds this very slice, else a fresh
// encodePprof, which is memoized, with the body's SHA-256, if the entry
// still holds it. The sum is the one the entry was admitted with, or is
// computed here, outside c.mu and only for a body that was resident. A
// body that is not resident (evicted since it was fetched) is encoded on
// every call, and a failed encode is never kept. Concurrent first requests
// for one key may each encode; the memo keeps one of the identical
// results.
func (c *lru) pprof(key string, body []byte) ([]byte, error) {
	c.mu.Lock()
	it := c.holding(key, body)
	if it != nil && it.pprof != nil {
		c.memoHits++
		gz := it.pprof
		c.mu.Unlock()
		return gz, nil
	}
	var sum [sha256.Size]byte
	resident, summed := it != nil, it != nil && it.summed
	if summed {
		sum = it.sum
	}
	c.mu.Unlock()
	gz, err := encodePprof(body)
	if err != nil {
		return nil, err
	}
	if resident && !summed {
		sum = sha256.Sum256(body)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encodes++
	if it := c.holding(key, body); it != nil && resident {
		it.pprof, it.sum, it.summed = gz, sum, true
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
// served from a memo, bodies served by spelling, and the ghosts kept and
// taken back.
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
		"ghosts":          c.ghosts.Len(),
		"ghost_hits":      c.ghostHits,
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
