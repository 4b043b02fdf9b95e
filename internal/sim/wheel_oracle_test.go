package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveWheel is the event wheel's specification: every pending event in one
// slice kept sorted by (time, schedule order).
type naiveWheel struct {
	events []event
	seq    uint64
}

func (w *naiveWheel) schedule(t uint64, core int) {
	w.seq++
	w.events = append(w.events, event{t: t, seq: w.seq, core: core})
	slices.SortFunc(w.events, func(a, b event) int {
		if a.less(b) {
			return -1
		}
		if b.less(a) {
			return 1
		}
		return 0
	})
}

func (w *naiveWheel) pop() event {
	e := w.events[0]
	w.events = w.events[1:]
	return e
}

// popped is the identity of a dispatched event.
type popped struct {
	t, seq uint64
	core   int
}

func (w *naiveWheel) clone() naiveWheel {
	return naiveWheel{events: slices.Clone(w.events), seq: w.seq}
}

// TestEventWheelMatchesNaive drives the machine's event wheel and the naive
// sorted slice with random interleavings of schedule, pop, peekTime and
// pending: equal-time bursts, self-continuations (pop, then schedule at or
// just after the popped time, the pattern the bypass slot serves), and
// scheduling ahead of the current minimum. Midway through every stream the
// machine is snapshotted, run on, restored, and run on again with the same
// operations, which must pop the same events.
func TestEventWheelMatchesNaive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.Cache.L1Size, cfg.Cache.L2Size, cfg.Cache.L3Size = 4<<10, 16<<10, 64<<10
	for seed := int64(1); seed <= 20; seed++ {
		m := New(cfg)
		w := &m.wheel
		var ref naiveWheel
		rng := rand.New(rand.NewSource(seed))

		// step performs one random operation on both wheels and returns the
		// popped event, or the zero value when it scheduled.
		var now uint64
		step := func(rng *rand.Rand) popped {
			if w.pending() != len(ref.events) {
				t.Fatalf("seed %d: pending %d, naive %d", seed, w.pending(), len(ref.events))
			}
			got, ok := w.peekTime()
			if ok != (len(ref.events) > 0) || ok && got != ref.events[0].t {
				t.Fatalf("seed %d: peekTime (%d, %v), naive head %v", seed, got, ok, ref.events)
			}
			switch k := rng.Intn(10); {
			case k < 4 || len(ref.events) == 0:
				var at uint64
				switch rng.Intn(4) {
				case 0: // equal-time burst with the current minimum
					at = now
					if len(ref.events) > 0 {
						at = ref.events[0].t
					}
				case 1: // ahead of everything pending
					at = now + uint64(rng.Intn(3))
				default:
					at = now + uint64(rng.Intn(500))
				}
				core := rng.Intn(cfg.Cores)
				w.schedule(at, core, nil)
				ref.schedule(at, core)
			default:
				e, r := w.pop(), ref.pop()
				if e.t != r.t || e.seq != r.seq || e.core != r.core {
					t.Fatalf("seed %d: pop (t %d seq %d core %d), naive (t %d seq %d core %d)",
						seed, e.t, e.seq, e.core, r.t, r.seq, r.core)
				}
				now = e.t
				if rng.Intn(2) == 0 { // self-continuation
					at := now + uint64(rng.Intn(2))*uint64(rng.Intn(40))
					w.schedule(at, e.core, nil)
					ref.schedule(at, e.core)
				}
				return popped{e.t, e.seq, e.core}
			}
			return popped{}
		}

		for i := 0; i < 2000; i++ {
			step(rng)
		}
		snap, saved, savedNow := m.Snapshot(), ref.clone(), now
		suffix := rng.Int63()
		var first []popped
		r1 := rand.New(rand.NewSource(suffix))
		for i := 0; i < 2000; i++ {
			first = append(first, step(r1))
		}
		m.Restore(snap)
		ref, now = saved, savedNow
		r2 := rand.New(rand.NewSource(suffix))
		for i := 0; i < 2000; i++ {
			if e := step(r2); e != first[i] {
				t.Fatalf("seed %d: op %d after restore popped %+v, first pass %+v", seed, i, e, first[i])
			}
		}
		for w.pending() > 0 {
			if e, r := w.pop(), ref.pop(); e.seq != r.seq {
				t.Fatalf("seed %d: drain popped seq %d, naive %d", seed, e.seq, r.seq)
			}
		}
	}
}
