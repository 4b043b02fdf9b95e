package core

import (
	"container/list"
	"sync"
)

// CheckpointPool shares warmup checkpoints between runs that differ only in
// their measured phase: the first run of a warm key pays the warmup and
// captures a checkpoint, every later run forks from it. The experiment
// engine and dprofd both hold one; the caller derives the key, which must
// cover everything that shapes machine state up to the warmup boundary.
//
// Each entry has its own lock, held across capture and every fork: a
// checkpoint restores into the machine it was captured from, so its forks
// (and the reads of the state a fork leaves behind) cannot overlap.
// Parallelism comes from distinct keys, which share nothing. The pool lock
// guards only the index, the recency list and the byte accounting — never a
// simulation — so a long warmup on one key never blocks forks on another.
//
// Retained checkpoint bytes are bounded by an LRU budget. A checkpoint
// larger than the whole budget is evicted as soon as it is captured — the
// bound is hard — but the fork that captured it still runs: eviction only
// forgets a checkpoint, it never invalidates one a caller is using.
type CheckpointPool struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are *poolEntry
	entries  map[string]*poolEntry

	captures  uint64
	forks     uint64
	evictions uint64
}

// poolEntry is one warm key's slot.
type poolEntry struct {
	mu    sync.Mutex
	key   string
	cp    *Checkpoint // nil until captured
	dead  bool        // capture failed and the slot left the pool: callers retry on a fresh one
	bytes int64
	el    *list.Element // LRU position; nil once evicted or dropped
}

// PoolStats are a pool's counters: resident entries, warmup phases captured,
// measured phases forked, retained bytes against the budget, and checkpoints
// evicted to fit it. dprofd serves them as the /stats "checkpoints" block.
type PoolStats struct {
	Entries   int    `json:"entries"`
	Captures  uint64 `json:"captures"`
	Forks     uint64 `json:"forks"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Evictions uint64 `json:"evictions"`
}

// NewCheckpointPool returns an empty pool retaining at most maxBytes of
// checkpoints.
func NewCheckpointPool(maxBytes int64) *CheckpointPool {
	return &CheckpointPool{maxBytes: maxBytes, ll: list.New(), entries: make(map[string]*poolEntry)}
}

// Do runs fn with key's checkpoint under the entry lock, first calling
// capture when the pool holds none for key. A capture error is returned and
// leaves no entry behind; fn's error is returned as is. fn forks from the
// checkpoint and reads the resulting state; it must not retain either past
// its return, because the next caller's fork rewinds them. capture and fn
// run under the entry lock, so neither may call Do for the same key.
func (p *CheckpointPool) Do(key string, capture func() (*Checkpoint, error), fn func(*Checkpoint) error) error {
	e := p.lock(key)
	defer e.mu.Unlock()
	if e.cp == nil {
		cp, err := capture()
		if err != nil {
			e.dead = true
			p.mu.Lock()
			p.unlink(e)
			p.mu.Unlock()
			return err
		}
		e.cp = cp
		p.captured(e, int64(cp.Bytes()))
	}
	before := e.cp.Forks()
	err := fn(e.cp)
	p.mu.Lock()
	p.forks += uint64(e.cp.Forks() - before)
	p.mu.Unlock()
	return err
}

// lock returns key's live entry, locked, creating it on first use and
// marking it most recently used.
func (p *CheckpointPool) lock(key string) *poolEntry {
	for {
		p.mu.Lock()
		e, ok := p.entries[key]
		if ok {
			p.ll.MoveToFront(e.el)
		} else {
			e = &poolEntry{key: key}
			e.el = p.ll.PushFront(e)
			p.entries[key] = e
		}
		p.mu.Unlock()
		e.mu.Lock()
		if !e.dead {
			return e
		}
		e.mu.Unlock()
	}
}

// captured accounts a fresh checkpoint's bytes and evicts from the cold end
// until the pool fits its budget again. Entries still capturing hold no
// bytes yet and are skipped: evicting one would free nothing and discard
// the warmup it is running.
func (p *CheckpointPool) captured(e *poolEntry, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.captures++
	e.bytes = bytes
	p.bytes += bytes
	for el := p.ll.Back(); el != nil && p.bytes > p.maxBytes; {
		victim := el.Value.(*poolEntry)
		el = el.Prev()
		if victim.bytes > 0 {
			p.unlink(victim)
			p.evictions++
		}
	}
}

// unlink removes an entry from the index, the recency list and the byte
// accounting. Callers hold p.mu.
func (p *CheckpointPool) unlink(e *poolEntry) {
	if e.el == nil {
		return
	}
	p.ll.Remove(e.el)
	e.el = nil
	delete(p.entries, e.key)
	p.bytes -= e.bytes
}

// Stats returns the pool's current counters.
func (p *CheckpointPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Entries:   p.ll.Len(),
		Captures:  p.captures,
		Forks:     p.forks,
		Bytes:     p.bytes,
		MaxBytes:  p.maxBytes,
		Evictions: p.evictions,
	}
}
