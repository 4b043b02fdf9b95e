package memcachedsim

import "testing"

// TestDefaultModeStationarity measures the broken configuration's throughput
// in successive 10 ms windows: it must settle rather than decay without
// bound (a decaying baseline would make the fix speedup depend on the
// measurement window).
func TestDefaultModeStationarity(t *testing.T) {
	var rates []float64
	for _, warm := range []uint64{2, 12, 22, 32} {
		b := New(DefaultConfig())
		st := run(b, warm*1_000_000, 10_000_000)
		rates = append(rates, st.Throughput)
		t.Logf("warmup %2dms: %.0f req/s", warm, st.Throughput)
	}
	// Allow settling from the first window, but later windows must stay
	// within 25% of each other.
	last := rates[len(rates)-1]
	for _, r := range rates[1:] {
		if r < 0.75*last || r > 1.25*last {
			t.Fatalf("default-mode throughput not stationary: %v", rates)
		}
	}
}
