package hashtab

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestTableMatchesMap cross-checks the table against a Go map for integer
// and pointer values. Each stream starts from a tiny table, to force grows,
// over a small key space that includes key 0, so probe chains collide and
// deletions keep shifting entries back. A capture taken mid-stream is
// restored into the same table after edits that kept its size, after it
// ran on and grew, and after a Release, and into another table released
// dirty. Each restore must read back the captured contents; the last three,
// replayed, must reproduce the uninterrupted table slot for slot.
func TestTableMatchesMap(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { testMatchesMap(t, (*rand.Rand).Uint64) })
	t.Run("int", func(t *testing.T) { testMatchesMap(t, (*rand.Rand).Int) })
	t.Run("pointer", func(t *testing.T) {
		testMatchesMap(t, func(r *rand.Rand) *int { v := r.Int(); return &v })
	})
}

func testMatchesMap[V comparable](t *testing.T, val func(*rand.Rand) V) {
	arrays := new(Recycler[Entry[V]])
	// run applies a seeded stream of operations to tab and ref, checking
	// every read against ref.
	run := func(tab *Table[V], ref map[uint64]V, seed int64, steps, keys int) {
		t.Helper()
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < steps; i++ {
			k := uint64(r.Intn(keys))
			want, present := ref[k]
			switch r.Intn(5) {
			case 0:
				if got := tab.Get(k); got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %v, want %v", seed, i, k, got, want)
				}
			case 1:
				v := val(r)
				tab.Set(k, v)
				ref[k] = v
			case 2:
				if got, ok := tab.Delete(k); ok != present || got != want {
					t.Fatalf("seed %d step %d: Delete(%d) = %v, %v, want %v, %v", seed, i, k, got, ok, want, present)
				}
				delete(ref, k)
			case 3:
				v := val(r)
				if slot, ok := tab.Find(k); ok {
					*tab.At(slot) = v
				} else if tab.InsertAt(slot, k, v) {
					tab.Grow()
				}
				ref[k] = v
			case 4:
				slot, ok := tab.Find(k)
				if ok != present || ok && *tab.At(slot) != want {
					t.Fatalf("seed %d step %d: Find(%d) present %v, want %v", seed, i, k, ok, present)
				}
				if ok {
					tab.DeleteAt(slot)
					delete(ref, k)
				}
			}
		}
		check(t, tab, ref)
	}

	tab, other := new(Table[V]), new(Table[V])
	*tab, *other = New(4, arrays), New(4, arrays)
	ref := map[uint64]V{}
	run(tab, ref, 1, 1000+rand.New(rand.NewSource(2)).Intn(40_000), 512)
	snap := tab.Capture()
	captured := maps.Clone(ref)
	if got, want := snap.Bytes(), uint64(len(ref))*uint64(4+unsafe.Sizeof(Entry[V]{})); got != want {
		t.Fatalf("snapshot Bytes = %d, want %d", got, want)
	}
	size := tab.DenseBytes()

	// Overwrite, delete and insert short of a grow, so the restore clears
	// and reuses the same array.
	r := rand.New(rand.NewSource(5))
	for k := range captured {
		if k%2 == 0 {
			tab.Delete(k)
		} else {
			tab.Set(k, val(r))
		}
	}
	for k := uint64(1 << 20); (tab.n+1)*4 <= len(tab.entries)*3; k++ {
		tab.Set(k, val(r))
	}
	tab.Restore(&snap)
	if got := tab.DenseBytes(); got != size {
		t.Fatalf("restore into the same-size table holds %d bytes, want %d", got, size)
	}
	check(t, tab, captured)

	// Run on past the capture over a wider key space, so the table grows.
	after := maps.Clone(captured)
	run(tab, after, 3, 30_000, 4096)
	if tab.DenseBytes() <= size {
		t.Fatalf("table stayed at %d bytes; the test needs it to grow", size)
	}
	uninterrupted := slotOrder(tab)

	run(other, map[uint64]V{}, 4, 5_000, 1<<20)
	other.Release()
	for _, tc := range []struct {
		name    string
		tab     *Table[V]
		release bool
	}{
		{"in place", tab, false},
		{"released", tab, true},
		{"released other", other, false},
	} {
		if tc.release {
			tc.tab.Release()
			if tc.tab.DenseBytes() != 0 {
				t.Fatalf("%s: released table holds %d bytes", tc.name, tc.tab.DenseBytes())
			}
		}
		tc.tab.Restore(&snap)
		if got := tc.tab.DenseBytes(); got != size {
			t.Fatalf("%s: restored table holds %d bytes, want %d", tc.name, got, size)
		}
		check(t, tc.tab, captured)
		replay := maps.Clone(captured)
		run(tc.tab, replay, 3, 30_000, 4096)
		if got := slotOrder(tc.tab); !slices.Equal(got, uninterrupted) {
			t.Fatalf("%s: replayed table's slot order differs from the uninterrupted run", tc.name)
		}
	}
}

// check compares tab's contents and Len with ref, by lookup and by
// iteration.
func check[V comparable](t *testing.T, tab *Table[V], ref map[uint64]V) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got := tab.Get(k); got != want {
			t.Fatalf("Get(%d) = %v, want %v", k, got, want)
		}
	}
	n := 0
	for k, v := range tab.All() {
		n++
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("All yields %d: %v, want %v (present %v)", k, v, want, ok)
		}
	}
	if n != len(ref) {
		t.Fatalf("All yields %d entries, want %d", n, len(ref))
	}
}

// slotOrder returns tab's keys in slot order.
func slotOrder[V any](tab *Table[V]) []uint64 {
	var keys []uint64
	for k := range tab.All() {
		keys = append(keys, k)
	}
	return keys
}
