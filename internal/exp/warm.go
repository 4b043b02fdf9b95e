package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dprof/internal/core"
)

// RunCfg is what the engine hands each experiment body. Quick selects the
// small run windows; the unexported memo, when present, shares finished runs
// between experiments of the same RunAll.
//
// Experiments reach simulation through the session and bare helpers below.
// Every run takes the one cold path: build, run, read. With a memo, a run
// whose full configuration (workload, options, every session field and the
// run windows) already ran in this RunAll is not run again: the caller
// reads the finished session or instance that run left behind. Either
// way the observable results are byte-identical to unshared runs, enforced
// by the equivalence and golden tests.
type RunCfg struct {
	Quick bool
	memo  *runMemo
}

// runMemo maps a run's full configuration to its finished state. Each entry
// has its own lock, held across the run and every read, so reads of one
// run never overlap and distinct runs proceed in parallel; the memo lock
// guards only the index.
type runMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
}

type memoEntry struct {
	mu  sync.Mutex
	run *finishedRun // nil until a run completes
}

// finishedRun is one run's state after its measured phase: the session for
// a profiled run, the workload instance for a bare one.
type finishedRun struct {
	s    *core.Session
	inst core.Runnable
	res  core.RunResult
}

func newRunMemo() *runMemo { return &runMemo{entries: make(map[string]*memoEntry)} }

// do hands read the finished run for key, running it first when no earlier
// caller finished it. A nil memo runs every call cold. A run that panics is
// never kept: the next caller runs it afresh on a new instance. read must
// not retain the run's state: later callers read it too.
func (m *runMemo) do(key string, run func() *finishedRun, read func(*finishedRun)) {
	if m == nil {
		read(run())
		return
	}
	m.mu.Lock()
	e, ok := m.entries[key]
	if !ok {
		e = new(memoEntry)
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.run == nil {
		e.run = run()
	}
	read(e.run)
}

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

// sessionKey is a profiled run's memo key: the workload, its options and
// the whole session configuration, run windows included.
func sessionKey(name string, opts map[string]string, scfg core.SessionConfig) string {
	return fmt.Sprintf("session|%s|%s|%+v", name, optsKey(opts), scfg)
}

// session runs a profiled session and hands it, still locked, to read.
// Streamed sessions (OnWindow) always run cold: their callback is part of
// the run.
func (rc RunCfg) session(name string, opts map[string]string, scfg core.SessionConfig, read func(*core.Session, core.RunResult)) {
	m := rc.memo
	if scfg.OnWindow != nil {
		m = nil
	}
	m.do(sessionKey(name, opts, scfg), func() *finishedRun {
		s := mustSession(build(name, opts), scfg)
		return &finishedRun{s: s, res: s.Run()}
	}, func(r *finishedRun) { read(r.s, r.res) })
}

// bare runs an unprofiled workload instance (the paper's clean baseline
// runs) and hands it, still locked, to read. The lock registry is reset
// before the run, so lock-stat reports cover warmup+measure from a clean
// slate; callers that don't read locks are unaffected.
func (rc RunCfg) bare(name string, opts map[string]string, w window, read func(core.Runnable, core.RunResult)) {
	rc.memo.do(fmt.Sprintf("bare|%s|%s|%+v", name, optsKey(opts), w), func() *finishedRun {
		inst := build(name, opts)
		inst.Locks().Reset()
		return &finishedRun{inst: inst, res: core.RunBare(inst, w.warmup, w.measure)}
	}, func(r *finishedRun) { read(r.inst, r.res) })
}
