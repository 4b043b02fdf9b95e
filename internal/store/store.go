// Package store is dprofd's disk layer: a content-addressed, write-once
// object store for finished profile documents.
//
// Profiles are deterministic and immutable — the same canonical request
// always produces the same bytes — so cache-forever is correct and the
// store never updates an entry in place. Each object lives in its own
// file under the store directory, named by the SHA-256 of its content
// address and prefixed with a JSON header carrying the address, length,
// and a SHA-256 checksum of the body. Writes are crash-safe: the object
// is written to a temp file in the final directory, fsync'd, and then
// hard-linked into place, so a reader never observes a partial object and
// the first complete write wins every race. A corrupt or truncated file
// (torn write, bit rot) fails its checksum on Get, is dropped on the
// spot, and the caller's re-simulation repairs the entry with its next
// Put.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store is a disk-backed content-addressed object store. All methods are
// safe for concurrent use; the filesystem provides the synchronization
// (atomic link for writes, whole-file reads for gets).
type Store struct {
	dir string

	// maxBytes bounds the resident file bytes (0 = unbounded). When a Put
	// pushes the store past the budget, a sweep deletes the least recently
	// accessed objects (Get refreshes a hit file's mtime, so mtime order is
	// access order) until the store fits again. Deleting is always safe:
	// entries are immutable and re-derivable, so a swept profile simply
	// re-simulates on its next miss.
	maxBytes int64
	sweepMu  sync.Mutex // one sweeper at a time

	entries  atomic.Int64
	resident atomic.Int64 // file bytes on disk (headers + bodies)
	hits     atomic.Int64
	misses   atomic.Int64
	puts     atomic.Int64
	rejected atomic.Int64 // write-once: Put on an existing object
	corrupt  atomic.Int64 // checksum/length failures dropped on Get
	bytesIn  atomic.Int64 // body bytes written
	bytesOut atomic.Int64 // body bytes served

	sweeps       atomic.Int64 // over-budget sweep passes
	sweptObjects atomic.Int64 // objects deleted by sweeps
	sweptBytes   atomic.Int64 // file bytes reclaimed by sweeps

	// paths memoizes path: a file name is the SHA-256 of its address, and
	// a warm server reads the same addresses over and over. At maxPaths
	// entries the memo starts over, so it stays bounded.
	pathsMu sync.Mutex
	paths   map[string]string
}

// maxPaths bounds the path memo.
const maxPaths = 4096

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Dir           string `json:"dir"`
	Entries       int64  `json:"entries"`
	Hits          int64  `json:"hits"`
	Misses        int64  `json:"misses"`
	Puts          int64  `json:"puts"`
	Rejected      int64  `json:"write_once_rejected"`
	Corrupt       int64  `json:"corrupt_dropped"`
	BytesWritten  int64  `json:"bytes_written"`
	BytesRead     int64  `json:"bytes_read"`
	MaxBytes      int64  `json:"max_bytes"`
	BytesResident int64  `json:"bytes_resident"`
	Sweeps        int64  `json:"sweeps"`
	SweptObjects  int64  `json:"swept_objects"`
	SweptBytes    int64  `json:"swept_bytes"`
}

// header is the first line of every object file. Len and SHA256 cover the
// body that follows the newline; Address ties the file back to the cache
// key it serves (and guards against a file landing under the wrong name).
type header struct {
	V       int    `json:"v"`
	Address string `json:"address"`
	Len     int    `json:"len"`
	SHA256  string `json:"sha256"`
}

const tmpPrefix = ".tmp-"

// Open creates (if needed) and validates the store directory. It probes
// writability up front so a misconfigured deployment fails at startup
// with a clear error instead of on the first Put, sweeps temp files left
// by a crashed writer, and counts the resident objects.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: directory %s is not usable: %w", dir, err)
	}
	probe := filepath.Join(dir, ".probe")
	if err := os.WriteFile(probe, []byte("ok\n"), 0o644); err != nil {
		return nil, fmt.Errorf("store: directory %s is not writable: %w", dir, err)
	}
	os.Remove(probe)

	s := &Store{dir: dir, paths: make(map[string]string)}
	var n, bytes int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), tmpPrefix) {
			os.Remove(path) // a crashed writer's leftovers; never linked
			return nil
		}
		n++
		if info, err := d.Info(); err == nil {
			bytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	s.entries.Store(n)
	s.resident.Store(bytes)
	return s, nil
}

// SetMaxBytes bounds the store's resident file bytes; 0 removes the bound.
// A store already over the new budget sweeps immediately, so a restarted
// daemon with a tightened -store-max-bytes converges at startup rather
// than on its first Put.
func (s *Store) SetMaxBytes(n int64) {
	s.maxBytes = n
	s.maybeSweep("")
}

// maybeSweep deletes the least recently accessed objects (by file mtime,
// which Get refreshes on every hit; path as the tie break) until the store
// fits its byte budget again. keep, when non-empty,
// is the object the caller just linked into place: the newest entry is
// never the right eviction choice, and protecting it keeps a single
// over-budget object from thrashing write/sweep/write.
func (s *Store) maybeSweep(keep string) {
	if s.maxBytes <= 0 || s.resident.Load() <= s.maxBytes {
		return
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if s.resident.Load() <= s.maxBytes {
		return // a concurrent sweeper already got us under budget
	}
	type obj struct {
		path  string
		size  int64
		mtime time.Time
	}
	var objs []obj
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), tmpPrefix) {
			return nil
		}
		if info, err := d.Info(); err == nil {
			objs = append(objs, obj{path, info.Size(), info.ModTime()})
		}
		return nil
	})
	sort.Slice(objs, func(i, j int) bool {
		if !objs[i].mtime.Equal(objs[j].mtime) {
			return objs[i].mtime.Before(objs[j].mtime)
		}
		return objs[i].path < objs[j].path
	})
	s.sweeps.Add(1)
	for _, o := range objs {
		if s.resident.Load() <= s.maxBytes {
			break
		}
		if o.path == keep {
			continue
		}
		if os.Remove(o.path) == nil {
			s.entries.Add(-1)
			s.resident.Add(-o.size)
			s.sweptObjects.Add(1)
			s.sweptBytes.Add(o.size)
		}
	}
}

// Len reports the resident object count.
func (s *Store) Len() int64 { return s.entries.Load() }

// path maps a content address onto disk: objects shard into 256 prefix
// directories by the first byte of the address hash, so no single
// directory grows unboundedly.
func (s *Store) path(address string) string {
	s.pathsMu.Lock()
	defer s.pathsMu.Unlock()
	if p, ok := s.paths[address]; ok {
		return p
	}
	sum := sha256.Sum256([]byte(address))
	name := hex.EncodeToString(sum[:])
	p := filepath.Join(s.dir, name[:2], name)
	if len(s.paths) >= maxPaths {
		clear(s.paths)
	}
	s.paths[address] = p
	return p
}

// Get returns the stored body for a content address, as GetSum does.
func (s *Store) Get(address string) ([]byte, bool) {
	body, _, ok := s.GetSum(address)
	return body, ok
}

// GetSum returns the stored body for a content address and its SHA-256,
// the checksum the read verified against the file's header. A file that
// fails validation — short, torn, flipped bits, or written under the
// wrong name — is deleted so the next Put can repair the entry, and
// reported as a miss; the caller falls back to recomputing.
//
// A hit bumps the file's mtime, so the sweep's oldest-mtime order is
// true access order: a profile that is still being served survives
// budget pressure, and eviction lands on objects nothing has read.
// The bump is best-effort — a racing sweep can delete the file first,
// and serving the bytes we already read is still correct.
func (s *Store) GetSum(address string) (body []byte, sum [sha256.Size]byte, ok bool) {
	p := s.path(address)
	raw, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, sum, false
	}
	body, sum, ok = decode(raw, address)
	if !ok {
		s.corrupt.Add(1)
		s.misses.Add(1)
		if os.Remove(p) == nil {
			s.entries.Add(-1)
			s.resident.Add(-int64(len(raw)))
		}
		return nil, sum, false
	}
	now := time.Now()
	os.Chtimes(p, now, now)
	s.hits.Add(1)
	s.bytesOut.Add(int64(len(body)))
	return body, sum, true
}

// decode splits an object file into header and body, validates both and
// returns the body with its SHA-256.
func decode(raw []byte, address string) (body []byte, sum [sha256.Size]byte, ok bool) {
	nl := -1
	for i, b := range raw {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, sum, false
	}
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return nil, sum, false
	}
	body = raw[nl+1:]
	if h.V != 1 || h.Address != address || h.Len != len(body) {
		return nil, sum, false
	}
	sum = sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != h.SHA256 {
		return nil, sum, false
	}
	return body, sum, true
}

// Put stores a body under its content address, write-once: if the object
// already exists the call is a no-op (the store trusts the first complete
// write — contents are deterministic, so racers carry identical bytes).
// The write path is crash-safe: temp file in the final directory, fsync,
// hard link into place (link fails atomically if another writer won),
// then a directory fsync so the name survives a crash.
func (s *Store) Put(address string, body []byte) error {
	p := s.path(address)
	if _, err := os.Stat(p); err == nil {
		s.rejected.Add(1)
		return nil
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", address, err)
	}
	sum := sha256.Sum256(body)
	hdr, err := json.Marshal(header{V: 1, Address: address, Len: len(body), SHA256: hex.EncodeToString(sum[:])})
	if err != nil {
		return fmt.Errorf("store: put %s: %w", address, err)
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", address, err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(append(hdr, '\n'), body...)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s: %w", address, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put %s: %w", address, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put %s: %w", address, err)
	}
	if err := os.Link(tmp.Name(), p); err != nil {
		if errors.Is(err, fs.ErrExist) {
			s.rejected.Add(1) // lost the race; the winner's bytes are identical
			return nil
		}
		return fmt.Errorf("store: put %s: %w", address, err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	s.puts.Add(1)
	s.entries.Add(1)
	s.bytesIn.Add(int64(len(body)))
	s.resident.Add(int64(len(hdr)) + 1 + int64(len(body)))
	s.maybeSweep(p)
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Dir:           s.dir,
		Entries:       s.entries.Load(),
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Puts:          s.puts.Load(),
		Rejected:      s.rejected.Load(),
		Corrupt:       s.corrupt.Load(),
		BytesWritten:  s.bytesIn.Load(),
		BytesRead:     s.bytesOut.Load(),
		MaxBytes:      s.maxBytes,
		BytesResident: s.resident.Load(),
		Sweeps:        s.sweeps.Load(),
		SweptObjects:  s.sweptObjects.Load(),
		SweptBytes:    s.sweptBytes.Load(),
	}
}
