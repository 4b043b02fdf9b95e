package core

import (
	"container/list"
	"sync"
)

// CheckpointPool shares warmup checkpoints between runs that differ only in
// their measured phase: the first run of a warm key pays the warmup and
// captures a checkpoint, every later run forks from it. dprofd's /profile
// holds one; the caller derives the key, which must cover everything that
// shapes machine state up to the warmup boundary.
//
// Each entry has its own lock, held across capture and every fork: a
// checkpoint restores into the machine it was captured from, so its forks
// (and the reads of the state a fork leaves behind) cannot overlap.
// Parallelism comes from distinct keys, which share nothing. The pool lock
// guards only the index, the recency list and the byte accounting — never a
// simulation — so a long warmup on one key never blocks forks on another.
//
// Retained bytes are bounded by an LRU budget. After every fn an entry is
// charged what it keeps between calls (Checkpoint.Bytes: the snapshot and
// the live session behind it, far less once fn parks it); an entry holds
// no charge until its first fn returns. A checkpoint larger than the whole
// budget is evicted as soon as it is charged — the bound is hard — but the
// fork that captured it has run: eviction only forgets a checkpoint, it
// never invalidates one a caller is using.
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
	dead  bool        // a capture failed or a run panicked and the slot left the pool: callers retry on a fresh one
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
// leaves no entry behind; fn's error is returned as is. A capture or fn that
// panics drops the entry, because its machine stopped mid-run, and the panic
// goes on to the caller. fn forks from the checkpoint and reads the
// resulting state; it must not retain either past its return, because the
// next caller's fork rewinds them. capture and fn run under the entry lock,
// so neither may call Do for the same key.
func (p *CheckpointPool) Do(key string, capture func() (*Checkpoint, error), fn func(*Checkpoint) error) error {
	e := p.lock(key)
	defer e.mu.Unlock()
	kept := false
	defer func() {
		if !kept {
			e.dead = true
			p.mu.Lock()
			p.unlink(e)
			p.mu.Unlock()
		}
	}()
	if e.cp == nil {
		cp, err := capture()
		if err != nil {
			return err
		}
		e.cp = cp
		p.mu.Lock()
		p.captures++
		p.mu.Unlock()
	}
	before := e.cp.Forks()
	err := fn(e.cp)
	// Charge what the entry keeps now that fn is done with it: parked, a
	// checkpoint keeps far less than while it forks.
	bytes := int64(e.cp.Bytes())
	p.mu.Lock()
	p.forks += uint64(e.cp.Forks() - before)
	p.charge(e, bytes)
	p.mu.Unlock()
	kept = true
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

// charge sets a resident entry's bytes and evicts from the cold end until
// the pool fits its budget again. An entry already evicted is not charged.
// Entries not yet charged (capturing, or in their first fn) are skipped:
// evicting one would discard the warmup it is running. Callers hold p.mu.
func (p *CheckpointPool) charge(e *poolEntry, bytes int64) {
	if e.el == nil {
		return
	}
	p.bytes += bytes - e.bytes
	e.bytes = bytes
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

// Each calls fn with every resident checkpoint, under its entry lock, so fn
// never overlaps a fork.
func (p *CheckpointPool) Each(fn func(*Checkpoint)) {
	p.mu.Lock()
	entries := make([]*poolEntry, 0, p.ll.Len())
	for el := p.ll.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*poolEntry))
	}
	p.mu.Unlock()
	for _, e := range entries {
		e.mu.Lock()
		if e.cp != nil && !e.dead {
			fn(e.cp)
		}
		e.mu.Unlock()
	}
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
