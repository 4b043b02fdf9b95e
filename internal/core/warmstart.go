package core

import (
	"errors"
	"fmt"

	"dprof/internal/sim"
)

// WarmRunnable is a Runnable whose run splits at the warmup boundary, the
// contract warm-start simulation needs: RunWarmup drives the machine to the
// boundary with the measured window disarmed, and RunMeasured arms it and
// runs the measured phase — on the same machine, or on one restored from a
// checkpoint taken between the two.
type WarmRunnable interface {
	Runnable
	// RunWarmup executes the warmup phase (and resets cache statistics at
	// the boundary, exactly as the cold Run does).
	RunWarmup(warmup uint64)
	// RunMeasured executes the measured phase that follows a RunWarmup.
	RunMeasured(warmup, measure uint64) RunResult
}

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
	s      *Session
	wr     WarmRunnable
	snap   *sim.Snapshot
	warmup uint64
	forks  int
	// parked is set by Park: the machine's cache hierarchy is released,
	// and the next fork must restore it.
	parked bool
}

// Warmup runs the session's warmup phase and captures a checkpoint at the
// boundary. It replaces Run: windowing starts before the warmup exactly as
// the cold path does, and the session is consumed (Run after Warmup
// panics). Workloads that don't implement WarmRunnable are an error.
func (s *Session) Warmup() (*Checkpoint, error) {
	if s.ran {
		return nil, errors.New("core: Session.Warmup after the session already ran")
	}
	wr, ok := s.w.(WarmRunnable)
	if !ok {
		return nil, fmt.Errorf("core: workload %T does not support warm start", s.w)
	}
	s.ran = true
	if s.cfg.WindowCycles > 0 || s.cfg.OnWindow != nil {
		s.p.StartWindows(s.cfg.WindowCycles, s.cfg.Views, s.p.Desc(s.target), s.cfg.OnWindow)
	}
	wr.RunWarmup(s.cfg.Warmup)
	return &Checkpoint{s: s, wr: wr, snap: wr.Machine().Snapshot(), warmup: s.cfg.Warmup}, nil
}

// Fork runs one measured phase from the checkpoint. measure 0 uses the
// session's configured Measure. The first fork continues the warmed machine
// in place; every later fork restores the checkpoint first, rewinding the
// machine, the profilers, and the workload to the warmup boundary. After
// Fork returns, the session's views, result, and windows reflect this
// fork's measured phase.
func (cp *Checkpoint) Fork(measure uint64) RunResult {
	s := cp.s
	if measure == 0 {
		measure = s.cfg.Measure
	}
	if cp.forks > 0 || cp.parked {
		cp.wr.Machine().Restore(cp.snap)
		cp.parked = false
	}
	cp.forks++
	s.result = cp.wr.RunMeasured(cp.warmup, measure)
	if s.cfg.WindowCycles > 0 || s.cfg.OnWindow != nil {
		s.p.FinishWindows()
	}
	s.p.Sync()
	s.p.Collector.FinalizeStats()
	return s.result
}

// Park releases the machine's cache hierarchy (cache.Hierarchy.Release)
// between forks, so that an idle checkpoint keeps its sparse snapshot but
// not the machine's dense cache arrays. The next Fork restores the
// hierarchy, as every fork after the first does. Nothing may read the
// hierarchy between Park and that Fork: call Park only once the previous
// fork's views are rendered.
func (cp *Checkpoint) Park() {
	cp.wr.Machine().Hier.Release()
	cp.parked = true
}

// Session returns the session the checkpoint belongs to (its views and
// report reflect the most recent Fork).
func (cp *Checkpoint) Session() *Session { return cp.s }

// Runnable returns the workload instance the checkpoint forks.
func (cp *Checkpoint) Runnable() Runnable { return cp.wr }

// Forks reports how many measured phases have run from this checkpoint.
func (cp *Checkpoint) Forks() int { return cp.forks }

// Bytes estimates the checkpoint's retained size (for checkpoint pools).
func (cp *Checkpoint) Bytes() uint64 { return cp.snap.Bytes() }
