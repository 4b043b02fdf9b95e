package sim

// Tests for the hot-path machinery this package optimizes: the bypass-slot
// event wheel (batched same-core dispatch) and armed hook dispatch. The
// ordering tests pin the exact dispatch order; wheel_oracle_test.go checks
// the wheel against a naive sorted queue on random schedules.

import (
	"reflect"
	"testing"

	"dprof/internal/sym"
)

// runLog executes drive against a fresh machine and returns its
// observation log.
func runLog(cores int, drive func(m *Machine, log *[]string)) []string {
	m := testMachine(cores)
	var log []string
	drive(m, &log)
	return log
}

func TestBypassSlotEqualTimestampFIFO(t *testing.T) {
	// Equal-timestamp events must dispatch in schedule (seq) order even when
	// some land in the bypass slot and some in the heap, including events
	// scheduled from inside running tasks.
	drive := func(m *Machine, log *[]string) {
		for _, id := range []string{"a", "b", "c"} {
			id := id
			m.Schedule(0, 100, func(c *Ctx) {
				*log = append(*log, id)
				if id == "a" {
					// Same-cycle events scheduled mid-dispatch queue behind
					// the already-pending equal-time events.
					m.Schedule(0, 100, func(*Ctx) { *log = append(*log, "a2") })
				}
			})
		}
		m.RunAll()
	}
	got := runLog(1, drive)
	want := []string{"a", "b", "c", "a2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestBypassSlotDemotedByEarlierEvent(t *testing.T) {
	// An event scheduled earlier than the current slot holder must take the
	// slot and push the old holder back into the heap.
	m := testMachine(2)
	var order []string
	m.Schedule(0, 200, func(*Ctx) { order = append(order, "late") })  // takes the slot
	m.Schedule(1, 100, func(*Ctx) { order = append(order, "early") }) // demotes it
	if m.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", m.Pending())
	}
	m.RunAll()
	if want := []string{"early", "late"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestPendingCountsBypassSlot(t *testing.T) {
	m := testMachine(1)
	if m.Pending() != 0 {
		t.Fatalf("fresh machine pending = %d", m.Pending())
	}
	m.Schedule(0, 10, func(*Ctx) {}) // bypass slot
	if m.Pending() != 1 {
		t.Fatalf("pending after 1 schedule = %d, want 1", m.Pending())
	}
	m.Schedule(0, 20, func(*Ctx) {}) // heap
	m.Schedule(0, 30, func(*Ctx) {}) // heap
	if m.Pending() != 3 {
		t.Fatalf("pending after 3 schedules = %d, want 3", m.Pending())
	}
	m.RunAll()
	if m.Pending() != 0 {
		t.Fatalf("pending after RunAll = %d, want 0", m.Pending())
	}
}

func TestLargeSameCycleFanIn(t *testing.T) {
	// A large burst of same-cycle events across all cores must run in exact
	// schedule order.
	const burst = 256
	drive := func(m *Machine, log *[]string) {
		for i := 0; i < burst; i++ {
			id := itoa(uint64(i))
			m.Schedule(i%m.NumCores(), 1000, func(*Ctx) { *log = append(*log, id) })
		}
		m.RunAll()
	}
	got := runLog(8, drive)
	want := make([]string, burst)
	for i := range want {
		want[i] = itoa(uint64(i))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fan-in order = %v, want schedule order", got)
	}
}

func TestWindowBoundariesInterleaveWithBatchedDispatch(t *testing.T) {
	// Chained same-core continuations (the pattern the bypass slot batches)
	// crossing window boundaries: every boundary must still fire before the
	// first event at or past it.
	drive := func(m *Machine, log *[]string) {
		m.SetWindowTicks(100, func(b uint64) {
			*log = append(*log, "tick@"+itoa(b))
		})
		var step func(c *Ctx)
		n := 0
		step = func(c *Ctx) {
			*log = append(*log, "task@"+itoa(c.Now()))
			n++
			if n < 7 {
				c.Spawn(0, 60, step) // 0, 60, 120, ... crossing each boundary
			}
		}
		m.Schedule(0, 0, step)
		m.RunAll()
	}
	got := runLog(1, drive)
	want := []string{
		"task@0", "task@60",
		"tick@100", "task@120", "task@180",
		"tick@200", "task@240",
		"tick@300", "task@300", "task@360",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("interleaving = %v, want %v", got, want)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestArmedHookSkipsUnsampledAccesses(t *testing.T) {
	// An armed hook with a future deadline must not be called (nor have an
	// event populated) until the core clock reaches the deadline; after
	// delivery the machine re-reads the arm time.
	m := testMachine(1)
	calls := 0
	next := uint64(1000)
	m.AddArmedAccessHook(func(c *Ctx, ev *AccessEvent) {
		if ev.Time < next {
			return
		}
		next = ev.Time + 1000
		calls++
	}, HookArm{NextTime: func(int) uint64 { return next }})
	m.Schedule(0, 0, func(c *Ctx) {
		for i := 0; i < 2000; i++ {
			c.Read(uint64(i%8)*64, 8) // warm L1 hits, 3 cycles each
		}
	})
	m.RunAll()
	// ~6000 cycles of L1 hits with a 1000-cycle re-arm: a handful of
	// deliveries, far fewer than the 2000 accesses.
	if calls == 0 || calls > 20 {
		t.Fatalf("armed hook delivered %d times, want a small sampled count", calls)
	}
}

func TestArmedDispatchMatchesReference(t *testing.T) {
	// The same arming logic must deliver the identical sample sequence
	// whether the machine skips undelivered accesses (armed dispatch) or
	// dispatches every access because an always-on hook is registered too.
	type delivery struct {
		time uint64
		addr uint64
	}
	run := func(alwaysOn bool) []delivery {
		m := testMachine(2)
		if alwaysOn {
			m.AddAccessHook(func(*Ctx, *AccessEvent) {})
		}
		var got []delivery
		next := []uint64{500, 500}
		m.AddArmedAccessHook(func(c *Ctx, ev *AccessEvent) {
			if ev.Time < next[ev.Core] {
				return
			}
			next[ev.Core] = ev.Time + 500
			got = append(got, delivery{ev.Time, ev.Addr})
		}, HookArm{NextTime: func(core int) uint64 { return next[core] }})
		for core := 0; core < 2; core++ {
			core := core
			m.Schedule(core, 0, func(c *Ctx) {
				for i := 0; i < 300; i++ {
					c.Read(uint64(core)<<20|uint64(i%16)*64, 8)
				}
			})
		}
		m.RunAll()
		return got
	}
	armed, always := run(false), run(true)
	if !reflect.DeepEqual(armed, always) {
		t.Fatalf("armed deliveries diverged: armed %d samples, always-on %d", len(armed), len(always))
	}
	if len(armed) == 0 {
		t.Fatal("no samples delivered")
	}
}

func TestRangeArmedHookSeesOnlyOverlaps(t *testing.T) {
	// A range-armed hook (debug registers) must receive exactly the accesses
	// overlapping its windows, with time-gating disarmed.
	m := testMachine(1)
	var addrs []uint64
	watch := WatchRange{Addr: 0x2004, Len: 4}
	m.AddArmedAccessHook(func(c *Ctx, ev *AccessEvent) {
		addrs = append(addrs, ev.Addr)
	}, HookArm{Ranges: func() []WatchRange { return []WatchRange{watch} }})
	m.Rearm()
	m.Schedule(0, 0, func(c *Ctx) {
		c.Read(0x1000, 8)  // no overlap
		c.Read(0x2000, 8)  // overlaps [0x2004,0x2008)
		c.Write(0x2006, 2) // inside the window
		c.Read(0x2008, 8)  // adjacent, no overlap
	})
	m.RunAll()
	if want := []uint64{0x2000, 0x2006}; !reflect.DeepEqual(addrs, want) {
		t.Fatalf("range-armed hook saw %#x, want %#x", addrs, want)
	}
}

func TestWorkHooksStillFireWhenAccessHooksDisarmed(t *testing.T) {
	// Work hooks observe every access by contract, even when no access hook
	// is armed (the OProfile baseline counts cycles while IBS is idle).
	m := testMachine(1)
	m.AddArmedAccessHook(func(*Ctx, *AccessEvent) {
		t.Fatal("disarmed access hook was called")
	}, HookArm{NextTime: func(int) uint64 { return ArmNever }})
	var cycles uint64
	m.AddWorkHook(func(c *Ctx, _ sym.PC, n uint64) { cycles += n })
	m.Schedule(0, 0, func(c *Ctx) { c.Read(0x100, 8) })
	m.RunAll()
	if cycles == 0 {
		t.Fatal("work hook not called while access hooks disarmed")
	}
}
