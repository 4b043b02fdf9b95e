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

// Checkpoint is a machine checkpoint captured at a warmup boundary — of a
// profiling session (Session.Warmup) or of a bare, unprofiled workload
// (CaptureWarmup). Fork resumes the measured phase from it — any number of
// times, with any measured length — and each fork's result (and, for a
// session, its profile) is byte-identical to a cold run of the same
// configuration.
//
// A checkpoint restores into the machine instance it was captured from
// (wheel events close over live workload objects), so forks of one
// checkpoint are strictly sequential; parallelism comes from forking
// distinct checkpoints concurrently.
type Checkpoint struct {
	s      *Session // nil for a bare workload checkpoint
	wr     WarmRunnable
	snap   *sim.Snapshot
	warmup uint64
	forks  int

	// last and result record the most recent fork, so ForkMemo can answer a
	// repeat from the machine state that fork left behind.
	last   uint64
	result RunResult
}

// warmRunnable asserts the warm-start contract on a workload instance.
func warmRunnable(w Runnable) (WarmRunnable, error) {
	wr, ok := w.(WarmRunnable)
	if !ok {
		return nil, fmt.Errorf("core: workload %T does not support warm start", w)
	}
	return wr, nil
}

// newCheckpoint runs the warmup phase and snapshots the machine at the boundary.
func newCheckpoint(wr WarmRunnable, warmup uint64) *Checkpoint {
	wr.RunWarmup(warmup)
	return &Checkpoint{wr: wr, snap: wr.Machine().Snapshot(), warmup: warmup}
}

// CaptureWarmup runs an unprofiled workload's warmup phase and captures a
// checkpoint at the boundary: the bare-run counterpart of Session.Warmup.
// The instance must not have run yet.
func CaptureWarmup(w Runnable, warmup uint64) (*Checkpoint, error) {
	wr, err := warmRunnable(w)
	if err != nil {
		return nil, err
	}
	return newCheckpoint(wr, warmup), nil
}

// Warmup runs the session's warmup phase and captures a checkpoint at the
// boundary. It replaces Run: windowing starts before the warmup exactly as
// the cold path does, and the session is consumed (Run after Warmup
// panics). Workloads that don't implement WarmRunnable are an error.
func (s *Session) Warmup() (*Checkpoint, error) {
	if s.ran {
		return nil, errors.New("core: Session.Warmup after the session already ran")
	}
	wr, err := warmRunnable(s.w)
	if err != nil {
		return nil, err
	}
	s.ran = true
	if s.cfg.WindowCycles > 0 || s.cfg.OnWindow != nil {
		s.p.StartWindows(s.cfg.WindowCycles, s.cfg.Views, s.p.Desc(s.target), s.cfg.OnWindow)
	}
	cp := newCheckpoint(wr, s.cfg.Warmup)
	cp.s = s
	return cp, nil
}

// Fork runs one measured phase from the checkpoint. measure 0 uses the
// session's configured Measure. The first fork continues the warmed machine
// in place; every later fork restores the checkpoint first, rewinding the
// machine, the profilers, and the workload to the warmup boundary. After
// Fork returns, the session's views, result, and windows reflect this
// fork's measured phase.
func (cp *Checkpoint) Fork(measure uint64) RunResult {
	s := cp.s
	if measure == 0 && s != nil {
		measure = s.cfg.Measure
	}
	if cp.forks > 0 {
		cp.wr.Machine().Restore(cp.snap)
	}
	cp.forks++
	cp.last = measure
	cp.result = cp.wr.RunMeasured(cp.warmup, measure)
	if s == nil {
		return cp.result
	}
	s.result = cp.result
	if s.cfg.WindowCycles > 0 || s.cfg.OnWindow != nil {
		s.p.FinishWindows()
	}
	s.p.Sync()
	s.p.Collector.FinalizeStats()
	return s.result
}

// ForkMemo is Fork for callers that may repeat a measured length: when the
// most recent fork already ran measure, the machine still embodies that
// phase and its result returns without simulating again.
func (cp *Checkpoint) ForkMemo(measure uint64) RunResult {
	if measure == 0 && cp.s != nil {
		measure = cp.s.cfg.Measure
	}
	if cp.forks > 0 && cp.last == measure {
		return cp.result
	}
	return cp.Fork(measure)
}

// Session returns the session the checkpoint belongs to (its views and
// report reflect the most recent Fork); nil for a bare workload checkpoint.
func (cp *Checkpoint) Session() *Session { return cp.s }

// Runnable returns the workload instance the checkpoint forks.
func (cp *Checkpoint) Runnable() Runnable { return cp.wr }

// Forks reports how many measured phases have run from this checkpoint.
func (cp *Checkpoint) Forks() int { return cp.forks }

// Bytes estimates the checkpoint's retained size (for checkpoint pools).
func (cp *Checkpoint) Bytes() uint64 { return cp.snap.Bytes() }
