package workload

import (
	"math"
	"strconv"
)

// The windowed profiling pipeline needs one knob every workload shares: the
// accounting-window length. It is declared as a workload option (not a
// session-only flag) so it rides the same canonical parse path as every
// other option — the CLI flag, an HTTP request body, and a cached profile's
// content address all see one canonical value.

// WindowOption is the shared profiling-window knob. The zero default keeps
// today's behavior: one window covering the whole run (monolithic
// end-of-run aggregation).
func WindowOption() Option {
	return Option{Name: windowOption, Kind: Int, Default: "0",
		Usage: "profiling window length in simulated milliseconds (0 = one window for the whole run); views snapshot at every boundary"}
}

const windowOption = "window-ms"

// cyclesPerMs is the simulator's clock: 1 GHz.
const cyclesPerMs = 1_000_000

// windowFits reports whether a canonical window-ms value counts its cycles
// in a uint64. NewConfig rejects one that does not, so neither WindowCycles
// nor a caller multiplying the value by cyclesPerMs wraps.
func windowFits(canon string) bool {
	ms, err := strconv.ParseInt(canon, 10, 64)
	return err == nil && (ms <= 0 || uint64(ms) <= math.MaxUint64/cyclesPerMs)
}

// WindowCycles reads the shared window option as simulated cycles (1 ms ==
// 1e6 cycles at the simulator's 1 GHz clock). Negative values are treated
// as unset.
func WindowCycles(cfg Config) uint64 {
	if !cfg.Declared(windowOption) {
		return 0
	}
	ms := cfg.Int(windowOption)
	if ms <= 0 {
		return 0
	}
	return uint64(ms) * cyclesPerMs
}
