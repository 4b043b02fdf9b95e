package core

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"dprof/internal/cache"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/oprofile"
	"dprof/internal/sim"
)

// RunResult summarizes one measured workload run: a one-line human summary
// plus named values for programmatic assertions (experiments, tests,
// benchmarks).
type RunResult struct {
	Summary string
	Values  map[string]float64
}

// Runnable is what a workload instance gives the run lifecycle: the machine
// and allocator the profilers attach to, the lock registry the lock-stat
// baseline reads, a Start that schedules its load generators, and a Result
// that reads its measured window. The rest is this package's: warmUp and
// measureRun set the machine's measured window and stop horizon
// (sim.Machine.SetMeasureWindow), run the machine and reset its cache
// statistics, for Session.Run, Session.Warmup with Checkpoint.Fork, and
// RunBare alike; Prime starts a workload for callers that drive the machine
// themselves. Workloads read the window through sim.Ctx.Measured and the
// horizon through sim.Machine.Horizon, and a checkpoint restores both with
// the machine.
//
// Workload packages register constructors for Runnables in the
// internal/app/workload registry; Session neither knows nor cares which
// workload it is driving.
type Runnable interface {
	// Machine returns the simulated machine the workload runs on.
	Machine() *sim.Machine
	// Alloc returns the typed allocator (DProf's type oracle).
	Alloc() *mem.Allocator
	// Locks returns the lock registry the lock-stat baseline reports from.
	Locks() *lockstat.Registry
	// Start schedules the workload's load generators without running the
	// machine. The lifecycle calls it once per instance.
	Start()
	// Result summarizes the measured window, measure cycles long, once the
	// machine has run through it.
	Result(measure uint64) RunResult
}

// warmUp opens the measured window at the warmup boundary, with its end and
// the stop horizon unbounded, starts r, and runs it to the boundary, where
// cache statistics reset: the state a warm-start checkpoint captures. The
// open ends change nothing a run observes: no event before the boundary
// runs within a measured length of them. Work that overshoots the boundary
// mid-task counts as measured, on every path alike.
func warmUp(r Runnable, warmup uint64) {
	m := r.Machine()
	m.SetMeasureWindow(warmup, sim.Unbounded, sim.Unbounded)
	r.Start()
	m.Run(warmup)
	m.Hier.ResetStats()
}

// measureRun closes the measured window and the stop horizon at
// warmup+measure, runs the machine there and reads r's result. It continues
// a warmUp on the same machine, or on one restored from a checkpoint taken
// between the two.
func measureRun(r Runnable, warmup, measure uint64) RunResult {
	end := warmup + measure
	m := r.Machine()
	m.SetMeasureWindow(warmup, end, end)
	m.Run(end)
	return r.Result(measure)
}

// RunBare runs r's warmup and measured phases back to back with no profiler
// attached: the paper's clean baseline runs.
func RunBare(r Runnable, warmup, measure uint64) RunResult {
	warmUp(r, warmup)
	return measureRun(r, warmup, measure)
}

// Prime starts r with its generators stopping at horizon and nothing
// measured, without running the machine: callers that drive Machine().Run
// incrementally (history collection) start workloads this way.
func Prime(r Runnable, horizon uint64) {
	r.Machine().SetMeasureWindow(0, 0, horizon)
	r.Start()
}

// KnownViews lists the five DProf views in presentation order (§4).
var KnownViews = []string{"dataprofile", "workingset", "missclass", "dataflow", "pathtrace"}

// UnknownViewError reports a request for a view that does not exist.
type UnknownViewError struct{ Name string }

func (e *UnknownViewError) Error() string {
	return fmt.Sprintf("unknown view %q (known: %s)", e.Name, strings.Join(KnownViews, ", "))
}

// UnknownTypeError reports a dataflow/pathtrace target type the workload's
// allocator has not registered. Known carries the valid set for messages.
type UnknownTypeError struct {
	Name  string
	Known []string
}

func (e *UnknownTypeError) Error() string {
	return fmt.Sprintf("unknown type %q (known: %s)", e.Name, strings.Join(e.Known, ", "))
}

// SessionConfig tunes one profiling session.
type SessionConfig struct {
	// Profiler configures the attached DProf profiler (sample rate etc.).
	Profiler Config
	// Views are the views to render, from KnownViews. Empty means none: the
	// profiler still samples, and callers read views off Profiler() directly.
	Views []string
	// TypeName selects the history-collection target for the dataflow and
	// pathtrace views; required when either view is requested. Setting it
	// without those views still queues history collection for the type
	// (giving e.g. the miss-classification view path-trace evidence).
	TypeName string
	// Sets is how many history sets to collect per target (default 2).
	Sets int
	// WatchRange truncates target history collection to object offsets
	// [0, WatchRange) — the paper's hot-member optimization (§6.4). Zero
	// watches the whole object, capped at 256 bytes for large types.
	WatchRange uint32
	// MaxLifetime overrides the collector's history truncation horizon
	// (0 keeps the collector default).
	MaxLifetime uint64
	// LockStat and OProfile attach the baseline profilers the paper
	// compares against and render their reports after the views.
	LockStat bool
	OProfile bool
	// Warmup and Measure are the run windows in simulated cycles.
	Warmup  uint64
	Measure uint64
	// WindowCycles splits the profiling run into accounting windows of this
	// many simulated cycles: per-core sample deltas merge deterministically
	// at each boundary and every requested view snapshots there. Zero means
	// one window covering the whole run — exactly the monolithic end-of-run
	// aggregation.
	WindowCycles uint64
	// OnWindow, if set, receives each window snapshot as its boundary
	// closes (the streaming half of the windowed pipeline). Called on the
	// simulating goroutine; it must not retain the snapshot's tables.
	OnWindow func(*WindowSnapshot)
}

// Session owns the attach-profilers -> warmup -> measure -> render-views
// lifecycle that every DProf consumer (cmd/dprof, experiments, examples)
// shares. Construct with NewSession, execute with Run, and render with
// WriteReport — or pick results off Profiler(), Result(), and the view
// methods directly.
type Session struct {
	w      Runnable
	p      *Profiler
	op     *oprofile.Profiler
	cfg    SessionConfig
	views  map[string]bool
	target *mem.Type
	result RunResult
	ran    bool
}

// NewSession validates the configuration, attaches DProf (and the requested
// baselines) to the workload, and queues history collection for the
// dataflow/pathtrace target. The workload must not have run yet: profilers
// observe the machine from cycle zero.
func NewSession(w Runnable, cfg SessionConfig) (*Session, error) {
	if cfg.Sets <= 0 {
		cfg.Sets = 2
	}
	s := &Session{w: w, cfg: cfg, views: make(map[string]bool, len(cfg.Views))}
	for _, v := range cfg.Views {
		if !slices.Contains(KnownViews, v) {
			return nil, &UnknownViewError{Name: v}
		}
		s.views[v] = true
	}

	alloc := w.Alloc()
	s.p = Attach(w.Machine(), alloc, cfg.Profiler)
	s.p.StartSampling()
	if cfg.MaxLifetime > 0 {
		s.p.Collector.MaxLifetime = cfg.MaxLifetime
	}

	if (s.views["dataflow"] || s.views["pathtrace"]) && cfg.TypeName == "" {
		return nil, &UnknownTypeError{Name: "", Known: TypeNames(alloc)}
	}
	if cfg.TypeName != "" {
		t := alloc.TypeByName(cfg.TypeName)
		if t == nil {
			return nil, &UnknownTypeError{Name: cfg.TypeName, Known: TypeNames(alloc)}
		}
		s.target = t
		s.p.Collector.WatchLen = 8
		hi := cfg.WatchRange
		if hi == 0 {
			hi = watchRange(t)
		}
		s.p.Collector.AddSingleTargetsRange(t, 0, hi, cfg.Sets)
		s.p.Collector.Start()
	}

	if cfg.OProfile {
		s.op = oprofile.Attach(w.Machine())
		s.op.Start()
	}
	return s, nil
}

// Run executes the workload's warmup and measured windows and returns the
// run result. It may be called once. When the session is windowed
// (WindowCycles > 0, or an OnWindow sink is set), per-core sample deltas
// merge at every boundary and each requested view snapshots there; the
// final partial window closes when the run ends.
func (s *Session) Run() RunResult {
	if s.ran {
		panic("core: Session.Run called twice")
	}
	s.warm()
	return s.measure(s.cfg.Measure)
}

// windowed reports whether the run splits into accounting windows.
func (s *Session) windowed() bool { return s.cfg.WindowCycles > 0 || s.cfg.OnWindow != nil }

// warm consumes the session and runs its warmup phase, starting the window
// pipeline first so windows cover the whole run.
func (s *Session) warm() {
	s.ran = true
	if s.windowed() {
		s.p.StartWindows(s.cfg.WindowCycles, s.cfg.Views, s.p.Desc(s.target), s.cfg.OnWindow)
	}
	warmUp(s.w, s.cfg.Warmup)
}

// measure runs the measured phase that follows warm (or a checkpoint
// restore) and settles the profilers so the views read this run.
func (s *Session) measure(measure uint64) RunResult {
	s.result = measureRun(s.w, s.cfg.Warmup, measure)
	if s.windowed() {
		s.p.FinishWindows()
	}
	s.p.Sync()
	s.p.Collector.FinalizeStats()
	return s.result
}

// Windows returns the window snapshots of a windowed session (nil before
// Run, and for single-window sessions configured without an OnWindow sink).
func (s *Session) Windows() []*WindowSnapshot { return s.p.Windows() }

// Profiler exposes the attached DProf profiler (for consumers that need raw
// views, differential analysis, or custom collection).
func (s *Session) Profiler() *Profiler { return s.p }

// Topology returns the socket layout of the machine the session profiles
// (from the workload's build; the session itself does not choose it).
func (s *Session) Topology() cache.Topology { return s.w.Machine().Topology() }

// Target returns the resolved dataflow/pathtrace target type's descriptor
// (nil when no target was configured).
func (s *Session) Target() *TypeDesc {
	if s.target == nil {
		return nil
	}
	return s.p.Desc(s.target)
}

// Result returns the workload's run result (zero value before Run).
func (s *Session) Result() RunResult { return s.result }

// Report renders the run summary, the requested views, and the baselines.
func (s *Session) Report() string {
	var b strings.Builder
	s.WriteReport(&b)
	return b.String()
}

// WriteReport writes the run summary, each requested view in KnownViews
// order, and then the lock-stat and OProfile baseline reports.
func (s *Session) WriteReport(out io.Writer) {
	if !s.ran {
		s.Run()
	}
	fmt.Fprintln(out, s.result.Summary)
	if topo := s.Topology(); topo.Sockets > 1 {
		fmt.Fprintf(out, "topology: %s (%d sockets x %d cores)\n", topo, topo.Sockets, topo.CoresPerSocket)
	}
	fmt.Fprintln(out)

	if s.views["dataprofile"] {
		fmt.Fprintln(out, "== data profile view ==")
		fmt.Fprintln(out, s.p.DataProfile().String())
	}
	if s.views["workingset"] {
		fmt.Fprintln(out, "== working set view ==")
		fmt.Fprintln(out, s.p.WorkingSet().String())
		fmt.Fprintln(out, s.p.CacheResidency(DefaultReplayObjects).String())
	}
	if s.views["missclass"] {
		fmt.Fprintln(out, "== miss classification view ==")
		fmt.Fprintln(out, RenderMissClassification(s.p.MissClassification()))
	}
	if s.views["pathtrace"] && s.target != nil {
		fmt.Fprintln(out, "== path traces ==")
		const maxTraces = 3
		for i, tr := range s.p.PathTraces(s.p.Desc(s.target)) {
			if i == maxTraces {
				break
			}
			fmt.Fprintln(out, tr.String())
		}
	}
	if s.views["dataflow"] && s.target != nil {
		fmt.Fprintln(out, "== data flow view ==")
		g := s.p.DataFlow(s.p.Desc(s.target))
		fmt.Fprintln(out, g.Render())
		for _, e := range g.CrossCPUEdges() {
			fmt.Fprintf(out, "cross-CPU: %s ==> %s (x%d)\n", e.From, e.To, e.Count)
		}
	}
	if s.cfg.LockStat {
		fmt.Fprintln(out, "\n== lock-stat baseline ==")
		rep := s.w.Locks().BuildReport(s.cfg.Measure * uint64(s.w.Machine().NumCores()))
		fmt.Fprintln(out, rep.String())
	}
	if s.op != nil {
		fmt.Fprintln(out, "\n== OProfile baseline ==")
		fmt.Fprintln(out, s.op.BuildReport(1.0).String())
	}
}

// TypeNames lists an allocator's registered type names, sorted (for error
// messages and CLI listings).
func TypeNames(a *mem.Allocator) []string {
	var names []string
	for _, t := range a.Types() {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// watchRange limits history collection to the object head for large types
// (the paper's hot-member optimization, §6.4).
func watchRange(t *mem.Type) uint32 {
	if t.Size > 256 {
		return 256
	}
	return uint32(t.Size)
}
