package sim

import "testing"

// --- window-boundary edge cases ---

func TestWindowTicksZeroLengthClears(t *testing.T) {
	m := testMachine(1)
	var boundaries []uint64
	m.SetWindowTicks(100, func(b uint64) { boundaries = append(boundaries, b) })
	// Length 0 clears even with a non-nil callback.
	m.SetWindowTicks(0, func(b uint64) { boundaries = append(boundaries, b) })
	m.Schedule(0, 450, func(c *Ctx) {})
	m.RunAll()
	if len(boundaries) != 0 {
		t.Fatalf("cleared ticks still fired: %v", boundaries)
	}
}

func TestWindowTicksBeyondRunEnd(t *testing.T) {
	m := testMachine(1)
	var boundaries []uint64
	m.SetWindowTicks(1000, func(b uint64) { boundaries = append(boundaries, b) })
	// Every event finishes before the first boundary: no tick may fire, and
	// in particular none fires retroactively when the queue drains.
	m.Schedule(0, 300, func(c *Ctx) {})
	m.Schedule(0, 700, func(c *Ctx) {})
	m.RunAll()
	if len(boundaries) != 0 {
		t.Fatalf("boundary past run end fired: %v", boundaries)
	}
}

func TestWindowTicksBoundaryAtFinalEvent(t *testing.T) {
	m := testMachine(1)
	var boundaries []uint64
	var dispatched bool
	m.SetWindowTicks(100, func(b uint64) {
		if b == 300 && dispatched {
			t.Error("boundary 300 fired after the event scheduled at 300")
		}
		boundaries = append(boundaries, b)
	})
	// The final event sits exactly on a boundary: the tick belongs to the
	// closing window, so it fires before the event dispatches.
	m.Schedule(0, 300, func(c *Ctx) { dispatched = true })
	m.RunAll()
	if want := []uint64{100, 200, 300}; len(boundaries) != len(want) ||
		boundaries[0] != want[0] || boundaries[1] != want[1] || boundaries[2] != want[2] {
		t.Fatalf("boundaries = %v, want %v", boundaries, want)
	}
}

func TestWindowTicksReArmMidRun(t *testing.T) {
	m := testMachine(1)
	var first []uint64
	m.SetWindowTicks(100, func(b uint64) { first = append(first, b) })
	m.Schedule(0, 250, func(c *Ctx) {})
	m.RunAll()
	if want := []uint64{100, 200}; len(first) != 2 || first[0] != want[0] || first[1] != want[1] {
		t.Fatalf("first arm boundaries = %v, want %v", first, want)
	}
	m.SetWindowTicks(0, nil)
	// Re-arming at watermark 250 resumes from the next multiple, 300; the
	// already-fired 100 and 200 are not replayed.
	var second []uint64
	m.SetWindowTicks(100, func(b uint64) { second = append(second, b) })
	m.Schedule(0, 460, func(c *Ctx) {})
	m.RunAll()
	if want := []uint64{300, 400}; len(second) != 2 || second[0] != want[0] || second[1] != want[1] {
		t.Fatalf("re-armed boundaries = %v, want %v", second, want)
	}
}

// --- per-core streams ---

func TestPerCoreRandStreams(t *testing.T) {
	draw := func(m *Machine) [][]int64 {
		out := make([][]int64, m.NumCores())
		for i := range out {
			r := m.Core(i).Rand()
			for j := 0; j < 4; j++ {
				out[i] = append(out[i], r.Int63())
			}
		}
		return out
	}
	a, b := draw(testMachine(2)), draw(testMachine(2))
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("core %d draw %d not reproducible: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
	if a[0][0] == a[1][0] {
		t.Fatal("cores 0 and 1 share a stream")
	}
}
