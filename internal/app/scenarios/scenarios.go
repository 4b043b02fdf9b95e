// Package scenarios holds the small self-contained contention workloads:
// the false-sharing and associativity-conflict scenarios promoted from
// examples/, plus the true-sharing (lock/futex-style contention) and
// alien-cache ping-pong (remote-free path) scenarios. Each registers itself
// with the workload registry, so cmd/dprof, the experiment engine, and the
// examples all reach them by name.
//
// Unlike the case-study workloads (memcachedsim, apachesim), these run no
// kernel: they build a machine and a typed allocator directly and drive
// synthetic access patterns engineered to exhibit exactly one pathology
// from the paper's miss taxonomy (§4.3).
package scenarios

import (
	"unsafe"

	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// bench is the shared core.Runnable plumbing: machine, allocator, lock
// registry, and the warmup/measure window bookkeeping.
type bench struct {
	M *sim.Machine
	A *mem.Allocator
	L *lockstat.Registry

	measureFrom uint64
	measureTo   uint64
	stopAt      uint64
	started     bool
}

func newBench(scfg sim.Config, mcfg mem.Config) *bench {
	m := sim.New(scfg)
	locks := lockstat.NewRegistry()
	a := mem.New(mcfg, m.NumCores(), locks)
	a.BindMachine(m)
	return &bench{M: m, A: a, L: locks}
}

// Machine, Alloc, and Locks satisfy core.Runnable.
func (b *bench) Machine() *sim.Machine     { return b.M }
func (b *bench) Alloc() *mem.Allocator     { return b.A }
func (b *bench) Locks() *lockstat.Registry { return b.L }

// inWindow reports whether t falls inside the measured window.
func (b *bench) inWindow(t uint64) bool { return t >= b.measureFrom && t < b.measureTo }

// window primes the measured interval and the generator stop horizon.
func (b *bench) window(warmup, measure uint64) {
	b.measureFrom = warmup
	b.measureTo = warmup + measure
	b.stopAt = warmup + measure
}

// warmupWindow arms the start of the measured window and leaves its end and
// the generator stop horizon open (both depend on the measured length, which
// a warm-start fork chooses later). Tasks that overshoot the warmup boundary
// mid-task count into the window exactly as on the cold path; the open end
// changes nothing observable because no pre-boundary event ever runs within
// a measured length of the horizon.
func (b *bench) warmupWindow(warmup uint64) {
	b.measureFrom = warmup
	b.measureTo = ^uint64(0)
	b.stopAt = ^uint64(0)
}

// warm runs the machine to the warmup boundary and resets cache statistics —
// the point a warm-start checkpoint captures.
func (b *bench) warm(warmup uint64) {
	b.M.Run(warmup)
	b.M.Hier.ResetStats()
}

// measured arms the measured window and stop horizon and runs the measured
// interval. It continues a warm() on the same or a restored machine.
func (b *bench) measured(warmup, measureCycles uint64) {
	b.window(warmup, measureCycles)
	b.M.Run(warmup + measureCycles)
}

// benchState is the window bookkeeping a warm-start checkpoint captures;
// scenario snapshotters embed it alongside their own counters.
type benchState struct {
	measureFrom uint64
	measureTo   uint64
	stopAt      uint64
	started     bool
}

func (b *bench) state() benchState {
	return benchState{
		measureFrom: b.measureFrom,
		measureTo:   b.measureTo,
		stopAt:      b.stopAt,
		started:     b.started,
	}
}

func (b *bench) setState(st benchState) {
	b.measureFrom = st.measureFrom
	b.measureTo = st.measureTo
	b.stopAt = st.stopAt
	b.started = st.started
}

// liveBytes is the size of the bench a scenario embeds.
func (b *bench) liveBytes() uint64 { return uint64(unsafe.Sizeof(*b)) }

// seconds converts simulated cycles to seconds.
func seconds(cycles uint64) float64 { return float64(cycles) / float64(sim.Freq) }
