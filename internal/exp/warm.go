package exp

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"dprof/internal/app/apachesim"
	"dprof/internal/core"
)

// RunCfg is what the engine hands each experiment body. Quick selects the
// small run windows; name is the experiment the body runs for; the
// unexported memo, when present, shares finished runs between experiments
// of the same RunAll.
//
// Experiments reach simulation through the session and bare helpers below.
// Every run takes the one cold path: build, run, read. With a memo, a run
// whose full configuration (workload, options, every session field and the
// run windows) already ran in this RunAll, and is still kept, is not run
// again: the caller reads the finished session or instance that run left
// behind. Either way the observable results are byte-identical to unshared
// runs, enforced by the equivalence and golden tests.
type RunCfg struct {
	Quick bool
	name  string
	memo  *runMemo
}

// memoShare is one run that two experiments read: the run by its name
// (see runName) and the pair of experiments that read it.
type memoShare struct {
	run     string
	readers [2]string
}

// memoShares lists every run that two experiments of the registry read,
// with its two readers; no other run is read by more than one experiment,
// and no other run of either reader matches the name. TestGoldenProfiles'
// warm mode holds the table to the reads of a whole-registry RunAll, so it
// cannot go stale.
var memoShares = []memoShare{
	{runName("session", "memcached", memcachedOpts(false)), [2]string{"table6.1", "ext-oracle"}},
	{runName("bare", "memcached", memcachedOpts(false)), [2]string{"table6.2", "fix-memcached"}},
	{runName("session", "apache", apacheOpts(apachesim.PeakOffered, 0)), [2]string{"table6.4", "table6.5"}},
	{runName("bare", "apache", apacheOpts(apachesim.DropOffOffered, 0)), [2]string{"table6.6", "fix-apache"}},
	{runName("bare", "apache", apacheOpts(apachesim.DropOffOffered, apachesim.FixedBacklog)), [2]string{"fix-apache", "figure6.2"}},
}

// shares reports whether sh names the run of key.
func (sh memoShare) shares(key string) bool {
	return strings.HasPrefix(key, sh.run+"|")
}

// runMemo maps a run's full configuration to its finished state, for as
// long as a later experiment may read it. Each entry has its own lock,
// held across the run and every read, so reads of one run never overlap
// and distinct runs proceed in parallel; the memo lock guards the index
// and the census of reads.
//
// An entry lives until its last reader: right after each read, and again
// as each experiment finishes, an entry is dropped unless memoShares names
// its run with a pair that holds all of its readers and also an
// experiment of this RunAll that has neither read it nor finished. So a
// run no other experiment shares goes as soon as it is read, even while
// its reader's partner in another share is still to come, and a shared
// one when its partner has read it.
type runMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	pending map[string]int       // experiments of the RunAll not yet finished, by name
	reads   map[string]*keyReads // every key ever looked up, kept or dropped
}

type memoEntry struct {
	mu  sync.Mutex
	run *finishedRun // nil until a run completes
}

// keyReads is the census of one key: the experiments that have read it,
// which the drop rule weighs, and how many times it ran.
type keyReads struct {
	readers []string
	runs    int
}

// finishedRun is one run's state after its measured phase: the session for
// a profiled run, the workload instance for a bare one.
type finishedRun struct {
	s    *core.Session
	inst core.Runnable
	res  core.RunResult
}

// newRunMemo returns the memo of one RunAll over names.
func newRunMemo(names []string) *runMemo {
	m := &runMemo{
		entries: make(map[string]*memoEntry),
		pending: make(map[string]int),
		reads:   make(map[string]*keyReads),
	}
	for _, n := range names {
		m.pending[n]++
	}
	return m
}

// do hands read the finished run for key, running it first when no earlier
// caller finished it or its entry was dropped, then records reader as one
// of its readers. A nil memo runs every call cold. A run that panics is
// never kept: the next caller runs it afresh on a new instance. read must
// not retain the run's state: later callers read it too.
func (m *runMemo) do(reader, key string, run func() *finishedRun, read func(*finishedRun)) {
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
	c := m.reads[key]
	if c == nil {
		c = new(keyReads)
		m.reads[key] = c
	}
	m.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	ran := e.run == nil
	if ran {
		e.run = run()
	}
	read(e.run)

	m.mu.Lock()
	defer m.mu.Unlock()
	if ran {
		c.runs++
	}
	if !slices.Contains(c.readers, reader) {
		c.readers = append(c.readers, reader)
	}
	m.release(key, e)
}

// finish records that experiment name of the RunAll has finished, passed
// or failed, and drops every entry that no other experiment will read.
func (m *runMemo) finish(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending[name]--
	for key, e := range m.entries {
		m.release(key, e)
	}
}

// release deletes key's entry e unless a share of memoShares names key's
// run and its pair holds every reader of key and an unfinished experiment
// that has not read it. A caller already holding e still reads the run it
// finds there. m.mu is held.
func (m *runMemo) release(key string, e *memoEntry) {
	if m.entries[key] != e {
		return
	}
	readers := m.reads[key].readers
	for _, sh := range memoShares {
		if !sh.shares(key) || !isSubset(readers, sh.readers[:]) {
			continue
		}
		for _, x := range sh.readers {
			if m.pending[x] > 0 && !slices.Contains(readers, x) {
				return
			}
		}
	}
	delete(m.entries, key)
}

// isSubset reports whether every name of sub is in set.
func isSubset(sub, set []string) bool {
	for _, n := range sub {
		if !slices.Contains(set, n) {
			return false
		}
	}
	return true
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

// runName names a run by its kind ("session" or "bare"), workload and
// options: its memo key up to the session configuration or run window.
func runName(kind, workload string, opts map[string]string) string {
	return kind + "|" + workload + "|" + optsKey(opts)
}

// sessionKey is a profiled run's memo key: the workload, its options and
// the whole session configuration, run windows included.
func sessionKey(name string, opts map[string]string, scfg core.SessionConfig) string {
	return fmt.Sprintf("%s|%+v", runName("session", name, opts), scfg)
}

// session runs a profiled session and hands it, still locked, to read.
func (rc RunCfg) session(name string, opts map[string]string, scfg core.SessionConfig, read func(*core.Session, core.RunResult)) {
	rc.memo.do(rc.name, sessionKey(name, opts, scfg), func() *finishedRun {
		s := mustSession(build(name, opts), scfg)
		return &finishedRun{s: s, res: s.Run()}
	}, func(r *finishedRun) { read(r.s, r.res) })
}

// bare runs an unprofiled workload instance (the paper's clean baseline
// runs) and hands it, still locked, to read. The lock registry is reset
// before the run, so lock-stat reports cover warmup+measure from a clean
// slate; callers that don't read locks are unaffected.
func (rc RunCfg) bare(name string, opts map[string]string, w window, read func(core.Runnable, core.RunResult)) {
	rc.memo.do(rc.name, fmt.Sprintf("%s|%+v", runName("bare", name, opts), w), func() *finishedRun {
		inst := build(name, opts)
		inst.Locks().Reset()
		return &finishedRun{inst: inst, res: core.RunBare(inst, w.warmup, w.measure)}
	}, func(r *finishedRun) { read(r.inst, r.res) })
}
