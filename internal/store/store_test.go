package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	body := []byte(`{"workload":"falseshare","views":{"dataprofile":[1,2,3]}}`)
	if err := s.Put("profile/abc", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("profile/abc")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v", got, ok)
	}

	// A new Store over the same directory — a daemon restart — serves the
	// identical bytes and counts the resident object.
	s2 := open(t, dir)
	if n := s2.Len(); n != 1 {
		t.Errorf("restarted Len = %d, want 1", n)
	}
	got2, ok := s2.Get("profile/abc")
	if !ok || !bytes.Equal(got2, body) {
		t.Fatalf("restarted Get = %q, %v", got2, ok)
	}
	st := s2.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats after restart get: %+v", st)
	}
}

func TestWriteOnce(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Put("k", []byte("first")); err != nil {
		t.Fatal(err)
	}
	// A second Put — even with different bytes, which deterministic content
	// addressing makes impossible in practice — must not replace the object.
	if err := s.Put("k", []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "first" {
		t.Fatalf("Get = %q, %v; want the first write preserved", got, ok)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Rejected != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v; want 1 put, 1 rejected, 1 entry", st)
	}
}

// TestGetSum: GetSum hands back the SHA-256 its read verified, which is
// the body's, and drops and counts a corrupt file as Get does.
func TestGetSum(t *testing.T) {
	s := open(t, t.TempDir())
	body := []byte(`{"workload":"falseshare"}`)
	if err := s.Put("k", body); err != nil {
		t.Fatal(err)
	}
	got, sum, ok := s.GetSum("k")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("GetSum = %q, %v", got, ok)
	}
	if sum != sha256.Sum256(body) {
		t.Errorf("GetSum sum = %x, want the body's SHA-256 %x", sum, sha256.Sum256(body))
	}

	raw, err := os.ReadFile(s.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(s.path("k"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _, ok := s.GetSum("k"); ok {
		t.Fatalf("corrupt object served: %q", got)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Entries != 0 {
		t.Errorf("corrupt_dropped %d, entries %d, want 1, 0", st.Corrupt, st.Entries)
	}
	if _, err := os.Stat(s.path("k")); !os.IsNotExist(err) {
		t.Error("corrupt file not dropped")
	}
}

func TestMissingKey(t *testing.T) {
	s := open(t, t.TempDir())
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get on an empty store succeeded")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
}

// corruptions enumerates the failure modes a disk file can present; each
// must read as a miss, drop the bad file, and let a re-Put repair it.
func TestCorruptObjectsFallBackAndRepair(t *testing.T) {
	body := []byte("a perfectly good profile document")
	tests := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated body", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:len(raw)-5], 0o644)
		}},
		{"flipped body byte", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0x40
			return os.WriteFile(p, raw, 0o644)
		}},
		{"mangled header", func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[0] = '#'
			return os.WriteFile(p, raw, 0o644)
		}},
		{"empty file", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
		{"header only, no newline", func(p string) error {
			return os.WriteFile(p, []byte(`{"v":1}`), 0o644)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := open(t, t.TempDir())
			addr := "profile/" + tt.name
			if err := s.Put(addr, body); err != nil {
				t.Fatal(err)
			}
			if err := tt.corrupt(s.path(addr)); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(addr); ok {
				t.Fatalf("corrupt object served: %q", got)
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(s.path(addr)); !os.IsNotExist(err) {
				t.Error("corrupt file not dropped")
			}
			// The caller re-simulates and Puts again: the entry is repaired.
			if err := s.Put(addr, body); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(addr)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("repaired Get = %q, %v", got, ok)
			}
		})
	}
}

// TestWrongAddressFile: a file whose header names a different address
// (e.g. restored into the wrong place) must not be served.
func TestWrongAddressFile(t *testing.T) {
	s := open(t, t.TempDir())
	if err := s.Put("right", []byte("body")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.path("right"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path("wrong")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("wrong"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("wrong"); ok {
		t.Fatal("served an object under the wrong address")
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	// A path whose parent is a regular file cannot become a directory: the
	// misconfiguration surfaces at Open, not on the first Put.
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(f, "store")); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
	if _, err := Open(""); err == nil {
		t.Fatal("Open with an empty dir succeeded")
	}
}

func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.Put("live", []byte("body")); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that crashed between CreateTemp and Link.
	stale := filepath.Join(dir, "ab", tmpPrefix+"123")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if n := s2.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 (temp file must not count)", n)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file not swept")
	}
}

// TestConcurrentGetPut hammers one hot key plus a spread of cold keys from
// many goroutines; run under -race in CI. Every successful Get must return
// the exact bytes some Put wrote for that key.
func TestConcurrentGetPut(t *testing.T) {
	s := open(t, t.TempDir())
	body := func(k int) []byte { return []byte(fmt.Sprintf("body-%d", k)) }
	const workers, rounds, keys = 8, 50, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				addr := fmt.Sprintf("key-%d", k)
				if w%2 == 0 {
					if err := s.Put(addr, body(k)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
				if got, ok := s.Get(addr); ok && !bytes.Equal(got, body(k)) {
					t.Errorf("Get(%s) = %q", addr, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
	if st.Corrupt != 0 {
		t.Errorf("corrupt = %d, want 0", st.Corrupt)
	}
	for k := 0; k < keys; k++ {
		got, ok := s.Get(fmt.Sprintf("key-%d", k))
		if !ok || !bytes.Equal(got, body(k)) {
			t.Errorf("final Get(key-%d) = %q, %v", k, got, ok)
		}
	}
}

// TestSweepOldestFirst: tightening the byte budget evicts the oldest
// objects (by mtime) and only as many as it takes to fit; the newest
// survive and the counters account exactly what was reclaimed.
func TestSweepOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	body := bytes.Repeat([]byte("x"), 1024)
	addrs := []string{"a", "b", "c", "d", "e"}
	var sizes []int64
	for i, addr := range addrs {
		if err := s.Put(addr, body); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes, oldest first: put order is age order.
		when := time.Now().Add(time.Duration(i-len(addrs)) * time.Hour)
		if err := os.Chtimes(s.path(addr), when, when); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(s.path(addr))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	// A budget that fits exactly the two newest objects.
	s.SetMaxBytes(sizes[3] + sizes[4])
	for _, addr := range addrs[:3] {
		if _, err := os.Stat(s.path(addr)); !os.IsNotExist(err) {
			t.Errorf("old object %q survived the sweep", addr)
		}
	}
	for _, addr := range addrs[3:] {
		if got, ok := s.Get(addr); !ok || !bytes.Equal(got, body) {
			t.Errorf("new object %q swept or corrupted", addr)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.SweptObjects != 3 || st.Sweeps != 1 {
		t.Errorf("stats after sweep: %+v; want 2 entries, 3 swept in 1 pass", st)
	}
	if want := sizes[0] + sizes[1] + sizes[2]; st.SweptBytes != want {
		t.Errorf("swept bytes = %d, want %d", st.SweptBytes, want)
	}
	if st.BytesResident != sizes[3]+sizes[4] {
		t.Errorf("resident bytes = %d, want %d", st.BytesResident, sizes[3]+sizes[4])
	}
	// A swept entry is a plain miss: the caller re-simulates and repairs it.
	if _, ok := s.Get("a"); ok {
		t.Fatal("swept object served")
	}
	if err := s.Put("a", body); err != nil {
		t.Fatal(err)
	}
}

// TestGetRefreshesSweepOrder: a Get bumps the hit file's mtime, so the
// sweep evicts by access order, not write order — an old object that is
// still being read outlives a younger one nothing has touched.
func TestGetRefreshesSweepOrder(t *testing.T) {
	s := open(t, t.TempDir())
	body := bytes.Repeat([]byte("x"), 1024)
	addrs := []string{"hot-but-old", "cold-middle", "cold-new"}
	for i, addr := range addrs {
		if err := s.Put(addr, body); err != nil {
			t.Fatal(err)
		}
		// Backdate each file, oldest first, so write order is unambiguous.
		when := time.Now().Add(time.Duration(i-len(addrs)) * time.Hour)
		if err := os.Chtimes(s.path(addr), when, when); err != nil {
			t.Fatal(err)
		}
	}
	// Reading the oldest object moves it to the back of the eviction queue.
	if _, ok := s.Get("hot-but-old"); !ok {
		t.Fatal("Get on a resident object missed")
	}
	// Budget for exactly the survivor (header lengths vary with the
	// address, so size it from its own file): the sweep must take both
	// cold entries — in pure write order, "hot-but-old" would have been
	// the first victim.
	info, err := os.Stat(s.path("hot-but-old"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetMaxBytes(info.Size())
	if got, ok := s.Get("hot-but-old"); !ok || !bytes.Equal(got, body) {
		t.Fatalf("recently read object swept: %q, %v", got, ok)
	}
	for _, addr := range []string{"cold-middle", "cold-new"} {
		if _, err := os.Stat(s.path(addr)); !os.IsNotExist(err) {
			t.Errorf("cold object %q survived while budget held one object", addr)
		}
	}
	if st := s.Stats(); st.Entries != 1 || st.SweptObjects != 2 {
		t.Errorf("stats after access-order sweep: %+v", st)
	}
}

// TestSweepOnPutProtectsTheNewWrite: a Put that lands over budget sweeps
// older objects, never the object it just linked — otherwise one large
// write would thrash write/sweep/write forever.
func TestSweepOnPutProtectsTheNewWrite(t *testing.T) {
	s := open(t, t.TempDir())
	body := bytes.Repeat([]byte("y"), 2048)
	if err := s.Put("old", body); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(s.path("old"))
	if err != nil {
		t.Fatal(err)
	}
	// Age the first object and budget for exactly one object.
	when := time.Now().Add(-time.Hour)
	if err := os.Chtimes(s.path("old"), when, when); err != nil {
		t.Fatal(err)
	}
	s.SetMaxBytes(info.Size())
	if err := s.Put("new", body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("new"); !ok {
		t.Fatal("the just-written object was swept")
	}
	if _, ok := s.Get("old"); ok {
		t.Fatal("the old object survived an over-budget put")
	}
	if st := s.Stats(); st.Entries != 1 || st.SweptObjects != 1 {
		t.Errorf("stats after put-triggered sweep: %+v", st)
	}
}

// TestRestartCountsResidentBytes: Open recomputes the resident byte total
// from disk, so a restarted daemon's budget math starts correct.
func TestRestartCountsResidentBytes(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte("z"), 512)); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Stats().BytesResident
	if want == 0 {
		t.Fatal("resident bytes not tracked on Put")
	}
	s2 := open(t, dir)
	if got := s2.Stats().BytesResident; got != want {
		t.Errorf("restarted resident bytes = %d, want %d", got, want)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 64<<10)
	if err := s.Put("bench", body); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("bench"); !ok {
			b.Fatal("miss")
		}
	}
}
