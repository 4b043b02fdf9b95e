package serve

import (
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"

	"dprof/internal/app/workload"
)

// deckWarmKeys are the warm keys of perfbench's serve deck at seeds 1–2:
// every registered workload × seed × deck view set, 1 ms measured, quick.
// On a default server each is a pool entry of its own.
func deckWarmKeys(t *testing.T, s *Server) []profileKey {
	t.Helper()
	quick := true
	var keys []profileKey
	for _, name := range workload.Names() {
		for seed := 1; seed <= 2; seed++ {
			for _, views := range [][]string{{"dataprofile"}, {"dataprofile", "missclass"}, nil} {
				req := ProfileRequest{
					Workload:  name,
					Options:   map[string]string{"seed": strconv.Itoa(seed)},
					Views:     views,
					MeasureMs: 1,
					Quick:     &quick,
				}
				k, err := s.normalize(&req)
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// liveHeap is the live heap after two forced collections: the second
// empties the recyclers' sync.Pool stocks, which the first only moves to
// their victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

// fillPool forks, renders and parks every key through the pool, as
// /profile does, and returns the live-heap growth it leaves behind.
func fillPool(t *testing.T, s *Server, keys []profileKey) int64 {
	t.Helper()
	if raceEnabled {
		t.Skip("a heap measurement: the race detector only slows it")
	}
	before := liveHeap()
	for _, k := range keys {
		if _, err := s.runProfile(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	return liveHeap() - before
}

// TestCheckpointPoolChargesWhatItKeeps: the pool's charged bytes are what
// its parked entries keep. The deck's 42 warm keys, each forked, rendered
// and parked, grow the live heap by within 1.25x of what the pool charges,
// in either direction.
func TestCheckpointPoolChargesWhatItKeeps(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	keys := deckWarmKeys(t, s)
	grown := fillPool(t, s, keys)
	st := s.ckpts.Stats()
	if st.Entries != len(keys) || st.Evictions != 0 {
		t.Fatalf("pool holds %d entries after %d evictions, want all %d", st.Entries, st.Evictions, len(keys))
	}
	ratio := float64(grown) / float64(st.Bytes)
	t.Logf("%d parked entries: live heap grew %.1f MB, pool charges %.1f MB (%.2fx)",
		st.Entries, float64(grown)/1e6, float64(st.Bytes)/1e6, ratio)
	if ratio > 1.25 || ratio < 1/1.25 {
		t.Errorf("live heap grew %d bytes for a pool charging %d (%.2fx), want within 1.25x either way",
			grown, st.Bytes, ratio)
	}
}

// TestCheckpointPoolEvictsToBudget: under a budget a fraction of the
// deck's, the pool evicts until its charge fits, and the parked entries it
// keeps hold no more live heap than the budget (within the 1.25x the
// charge is held to).
func TestCheckpointPoolEvictsToBudget(t *testing.T) {
	const budget = 8 << 20
	s, _ := newTestServer(t, Config{CheckpointPoolBytes: budget})
	grown := fillPool(t, s, deckWarmKeys(t, s))
	st := s.ckpts.Stats()
	t.Logf("%d entries kept after %d evictions: live heap grew %.1f MB, pool charges %.1f MB of %.1f MB",
		st.Entries, st.Evictions, float64(grown)/1e6, float64(st.Bytes)/1e6, float64(budget)/1e6)
	if st.Evictions == 0 || st.Entries == 0 {
		t.Fatalf("pool stats = %+v, want some entries kept and some evicted", st)
	}
	if st.Bytes > budget {
		t.Errorf("pool charges %d bytes, over its %d budget", st.Bytes, budget)
	}
	if grown > budget*5/4 {
		t.Errorf("live heap grew %d bytes under a %d-byte budget, want at most 1.25x the budget", grown, budget)
	}
}
