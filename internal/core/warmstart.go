package core

import (
	"errors"

	"dprof/internal/sim"
)

// Checkpoint is a profiling session's machine checkpoint, captured at the
// warmup boundary by Session.Warmup. Fork resumes the measured phase from
// it — any number of times, with any measured length — and each fork's
// result and profile are byte-identical to a cold run of the same
// configuration.
//
// A checkpoint restores into the machine instance it was captured from
// (wheel events close over live workload objects), so forks of one
// checkpoint are strictly sequential; parallelism comes from forking
// distinct checkpoints concurrently.
type Checkpoint struct {
	s     *Session
	snap  *sim.Snapshot
	forks int
	// parked is set by Park: the machine is released, and the next fork
	// must restore it.
	parked bool
}

// Warmup runs the session's warmup phase and captures a checkpoint at the
// boundary. It replaces Run: windowing starts before the warmup exactly as
// the cold path does, and the session is consumed (Run after Warmup
// panics).
func (s *Session) Warmup() (*Checkpoint, error) {
	if s.ran {
		return nil, errors.New("core: Session.Warmup after the session already ran")
	}
	s.warm()
	return &Checkpoint{s: s, snap: s.w.Machine().Snapshot()}, nil
}

// Fork runs one measured phase from the checkpoint. measure 0 uses the
// session's configured Measure. The first fork continues the warmed machine
// in place; every later fork restores the checkpoint first, rewinding the
// machine, the profilers, and the workload to the warmup boundary. After
// Fork returns, the session's views, result, and windows reflect this
// fork's measured phase.
func (cp *Checkpoint) Fork(measure uint64) RunResult {
	if measure == 0 {
		measure = cp.s.cfg.Measure
	}
	if cp.forks > 0 || cp.parked {
		cp.s.w.Machine().Restore(cp.snap)
		cp.parked = false
	}
	cp.forks++
	return cp.s.measure(measure)
}

// Park releases the machine (sim.Machine.Release) between forks: the cache
// hierarchy's dense arrays, the profiler's sample map, FreeAt columns,
// unshared record blocks and live index, and the allocator's page table and
// slab freelists, all of which the next restore rewrites in full. An idle
// checkpoint then keeps its snapshot and what no fork rebuilds. The next
// Fork restores, as every fork after the first does. Nothing may read the
// session between Park and that Fork: call Park only once the previous
// fork's views are rendered.
func (cp *Checkpoint) Park() {
	cp.s.w.Machine().Release()
	cp.parked = true
}

// Session returns the session the checkpoint belongs to (its views and
// report reflect the most recent Fork).
func (cp *Checkpoint) Session() *Session { return cp.s }

// Runnable returns the workload instance the checkpoint forks.
func (cp *Checkpoint) Runnable() Runnable { return cp.s.w }

// Forks reports how many measured phases have run from this checkpoint.
func (cp *Checkpoint) Forks() int { return cp.forks }

// Bytes is the memory the checkpoint keeps, for checkpoint pools: its
// snapshot (sim.Snapshot.Bytes) and its live session, the machine with
// every attached component (sim.Machine.LiveBytes). A parked checkpoint
// keeps far less than one between Fork and Park.
func (cp *Checkpoint) Bytes() uint64 {
	return cp.snap.Bytes() + cp.s.w.Machine().LiveBytes()
}
