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
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// bench is the shared core.Runnable plumbing: machine, allocator and lock
// registry. The run lifecycle, measured window included, is core's.
type bench struct {
	M *sim.Machine
	A *mem.Allocator
	L *lockstat.Registry
}

func newBench(scfg sim.Config, mcfg mem.Config) bench {
	m := sim.New(scfg)
	locks := lockstat.NewRegistry()
	a := mem.New(mcfg, m.NumCores(), locks)
	a.BindMachine(m)
	return bench{M: m, A: a, L: locks}
}

// Machine, Alloc, and Locks satisfy core.Runnable.
func (b *bench) Machine() *sim.Machine     { return b.M }
func (b *bench) Alloc() *mem.Allocator     { return b.A }
func (b *bench) Locks() *lockstat.Registry { return b.L }

// seconds converts simulated cycles to seconds.
func seconds(cycles uint64) float64 { return float64(cycles) / float64(sim.Freq) }
