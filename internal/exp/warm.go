package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dprof/internal/core"
)

// RunCfg is what the engine hands each experiment body. Quick selects the
// small run windows; the unexported pool, when present, shares warm-start
// checkpoints between experiments of the same RunAll.
//
// Experiments reach simulation through the session and bare helpers below.
// With a nil pool both run cold, exactly as the bodies did before warm-start
// existed; with a pool, runs that share a warmup prefix (same workload,
// options, profiler configuration, and warmup length) fork one checkpoint
// instead of re-simulating the warmup, and runs with identical full
// configurations are answered from the already-materialized state without
// running at all (Checkpoint.ForkMemo). Either way the observable results
// are byte-identical to cold runs — that is the warm-start correctness bar,
// enforced by the equivalence tests.
type RunCfg struct {
	Quick bool
	warm  *core.CheckpointPool
}

// enginePoolBytes is the engine pool's budget: unbounded, so nothing is ever
// evicted and every warm key is captured once for the whole RunAll.
const enginePoolBytes = math.MaxInt64

// optsKey canonicalizes a workload option map.
func optsKey(opts map[string]string) string {
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, opts[k])
	}
	return b.String()
}

// sessionKey derives the warm key of a profiled session: everything shaping
// the run up to the warmup boundary. Measure is the only SessionConfig field
// a fork may vary; every other field changes profiler behavior during warmup
// (sampling, collection targeting, windowing) and so splits the warm key.
func sessionKey(name string, opts map[string]string, scfg core.SessionConfig) string {
	return fmt.Sprintf("session|%s|%s|rate=%v,addrs=%d,watch=%d|type=%s,sets=%d,range=%d,life=%d|ls=%t,op=%t|win=%d,views=%s|warm=%d",
		name, optsKey(opts),
		scfg.Profiler.SampleRate, scfg.Profiler.MaxAddrRecords, scfg.Profiler.WatchLen,
		scfg.TypeName, scfg.Sets, scfg.WatchRange, scfg.MaxLifetime,
		scfg.LockStat, scfg.OProfile,
		scfg.WindowCycles, strings.Join(scfg.Views, ";"),
		scfg.Warmup)
}

// fork runs read on the pool checkpoint for warmKey, capturing it first on
// the key's first use. Experiment configurations are constants, so a
// failure is a programming error and panics (the engine reports it).
func (rc RunCfg) fork(warmKey string, capture func() (*core.Checkpoint, error), read func(*core.Checkpoint)) {
	err := rc.warm.Do(warmKey, capture, func(cp *core.Checkpoint) error {
		read(cp)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
}

// session runs a profiled session and hands it, still locked, to read.
//
// Cold (no pool, or a streamed session): build, run, read. Warm: the first
// caller of the session's warm key pays the warmup and captures the
// checkpoint; later callers fork only the measured phase. read must not
// retain the session: it is shared, and another experiment's fork will
// rewind it.
func (rc RunCfg) session(name string, opts map[string]string, scfg core.SessionConfig, read func(*core.Session, core.RunResult)) {
	if rc.warm == nil || scfg.OnWindow != nil {
		s := mustSession(build(name, opts), scfg)
		read(s, s.Run())
		return
	}
	rc.fork(sessionKey(name, opts, scfg), func() (*core.Checkpoint, error) {
		return mustSession(build(name, opts), scfg).Warmup()
	}, func(cp *core.Checkpoint) {
		read(cp.Session(), cp.ForkMemo(scfg.Measure))
	})
}

// bare runs an unprofiled workload instance (the paper's clean baseline
// runs) and hands it, still locked, to read. The lock registry is reset
// before the warmup on every path, so lock-stat reports always cover
// warmup+measure from a clean slate — cold callers that don't read locks are
// unaffected, and warm forks restore the registry to its boundary state.
func (rc RunCfg) bare(name string, opts map[string]string, w window, read func(core.Runnable, core.RunResult)) {
	if rc.warm == nil {
		inst := build(name, opts)
		inst.Locks().Reset()
		read(inst, inst.Run(w.warmup, w.measure))
		return
	}
	warmKey := fmt.Sprintf("bare|%s|%s|warm=%d", name, optsKey(opts), w.warmup)
	rc.fork(warmKey, func() (*core.Checkpoint, error) {
		inst := build(name, opts)
		inst.Locks().Reset()
		return core.CaptureWarmup(inst, w.warmup)
	}, func(cp *core.Checkpoint) {
		read(cp.Runnable(), cp.ForkMemo(w.measure))
	})
}
