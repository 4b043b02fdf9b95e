// Package sim provides a deterministic, event-driven multicore machine.
//
// Workload code ("kernel" and "application" functions) runs as short tasks
// scheduled on simulated cores. Each task executes straight-line Go code that
// issues memory accesses through a Ctx; every access consults the shared
// cache hierarchy and advances the executing core's cycle clock by the access
// latency. Profiling hardware (IBS, debug registers — package hw) observes
// accesses through hooks, exactly as real PMU hardware observes retired
// instructions, and charges its interrupt costs to the interrupted core.
//
// The simulation is deterministic (seeded): two runs of a workload with the
// same seed produce identical access streams, which is what makes the
// paper's statistical profiler reproducible here. A run is one machine
// dispatching its event wheel sequentially.
package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dprof/internal/cache"
	"dprof/internal/sym"
)

// Freq is the simulated core clock: 1 GHz, so 1 cycle == 1 ns. The paper's
// latency numbers (3 ns L1, 200 ns foreign transfer, 2,000-cycle IBS
// interrupt) are used directly.
const Freq = 1_000_000_000

// TaskFunc is a unit of work executed on a core.
type TaskFunc func(*Ctx)

// Config describes a machine.
type Config struct {
	Cores int
	// Topology is the socket layout. The zero value means one socket
	// holding Cores cores (the flat pre-NUMA machine). When set, it is
	// authoritative: Cores must be zero or match Topology.NumCores().
	Topology cache.Topology
	Cache    cache.Config
	Seed     int64
}

// DefaultConfig returns the paper's 16-core machine on a single socket.
func DefaultConfig() Config {
	return Config{Cores: 16, Cache: cache.DefaultConfig(), Seed: 1}
}

// AccessEvent describes one line-sized memory access, as seen by hooks.
type AccessEvent struct {
	Time    uint64 // core-local cycle count when the access completed
	Core    int
	PC      sym.PC // innermost function executing the access
	Addr    uint64 // byte address of the accessed range within this line
	Size    uint32 // bytes accessed within this line
	Write   bool
	Level   cache.Level
	Latency uint32
}

// AccessHook observes memory accesses. Hooks run on the accessing core's
// context and may charge cycles (interrupt costs) but must not issue
// simulated memory accesses (hardware does not recurse).
type AccessHook func(*Ctx, *AccessEvent)

// Arm sentinels for HookArm.NextTime: ArmAlways requests every access,
// ArmNever requests none (until the hook re-arms and the machine Rearms).
const (
	ArmAlways = uint64(0)
	ArmNever  = ^uint64(0)
)

// WatchRange is an address window an armed hook wants to observe regardless
// of its time-based arming (debug-register watchpoints).
type WatchRange struct {
	Addr uint64
	Len  uint32
}

// HookArm declares when an armed access hook next needs to see an event, so
// the machine can skip AccessEvent population and the indirect call for
// accesses no hook cares about. NextTime(core) returns the core-local cycle
// at or after which the hook wants the next access (ArmAlways / ArmNever);
// Ranges returns address windows that must always be delivered. Either field
// may be nil; a HookArm with both nil is an always-on hook. Hooks whose
// arming state changes outside a delivered access (Start/Stop, SetAll) must
// call Machine.Rearm; after every delivered dispatch the machine re-reads the
// dispatching core's arm times itself.
type HookArm struct {
	NextTime func(core int) uint64
	Ranges   func() []WatchRange
}

// WorkHook observes compute cycles attributed to a function (used by the
// OProfile baseline for cycle accounting).
type WorkHook func(c *Ctx, pc sym.PC, cycles uint64)

// Core is one simulated CPU.
type Core struct {
	ID      int
	Socket  int // the chip this core sits on
	now     uint64
	stack   []sym.PC
	idle    uint64
	retired uint64 // accesses completed
	inHook  bool
	// hookArm is the earliest core-local cycle any armed access hook wants
	// the next access delivered at (ArmNever when no hook is armed). The
	// access hot path compares the clock against it instead of calling into
	// every hook.
	hookArm uint64
	seed    int64 // the value src was last seeded with (for Snapshot/Reseed)
	src     *countedSource
	rng     *rand.Rand
	// ev is scratch space for hook dispatch. Hooks receive a pointer into it
	// for the duration of the call only; reusing it keeps the per-access hot
	// path allocation-free (hooks that retain event data must copy fields).
	ev AccessEvent
}

// Rand returns the core's own deterministic RNG stream, derived from the
// machine seed and the core ID. Every source of simulated randomness draws
// from a per-core stream, so the draw sequence of one core never depends on
// what other cores have consumed.
func (c *Core) Rand() *rand.Rand { return c.rng }

// Now returns the core's cycle clock (its TSC).
func (c *Core) Now() uint64 { return c.now }

// Idle returns cycles the core spent with no runnable task.
func (c *Core) Idle() uint64 { return c.idle }

// Retired returns the number of completed memory accesses.
func (c *Core) Retired() uint64 { return c.retired }

// Fn returns the innermost function currently executing.
func (c *Core) Fn() sym.PC {
	if len(c.stack) == 0 {
		return sym.None
	}
	return c.stack[len(c.stack)-1]
}

type event struct {
	t    uint64
	seq  uint64
	core int
	fn   TaskFunc
}

// eventHeap is a hand-rolled binary min-heap ordered by (time, seq). It
// deliberately avoids container/heap: the interface{} boxing there allocates
// on every Push/Pop, and scheduling is one of the simulator's hottest
// non-access paths.
type eventHeap []event

func (h event) less(o event) bool {
	if h.t != o.t {
		return h.t < o.t
	}
	return h.seq < o.seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s[l].less(s[smallest]) {
			smallest = l
		}
		if r < n && s[r].less(s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// eventWheel is the scheduling state of one machine: its event heap, the
// sequence counter that breaks same-cycle ties, the dispatch watermark, and
// the window-tick state.
type eventWheel struct {
	events eventHeap
	seq    uint64
	now    uint64 // time of the most recently dispatched event

	// next is the bypass slot: the single earliest pending event, held
	// outside the heap. The dominant scheduling pattern is a task spawning
	// its own continuation (consecutive same-core tasks), which without the
	// slot costs a heap push plus a heap pop per task; with it, the
	// continuation drops into the slot and is popped back out untouched.
	// Invariant: when hasNext is set, next is less (by (t, seq)) than every
	// heap entry, so pop order is exactly the reference heap order.
	next    event
	hasNext bool

	// reference disables the bypass slot (every event goes through the
	// heap), for the optimized-vs-reference equivalence suite.
	reference bool

	// Window boundary ticks: winFn fires at every multiple of winLen before
	// any event at or past that boundary is dispatched (see SetWindowTicks).
	winLen  uint64
	winNext uint64
	winFn   func(boundary uint64)
}

// schedule queues fn for core at absolute time t.
func (w *eventWheel) schedule(t uint64, core int, fn TaskFunc) {
	w.seq++
	e := event{t: t, seq: w.seq, core: core, fn: fn}
	if w.reference {
		w.events.push(e)
		return
	}
	if w.hasNext {
		if e.less(w.next) {
			// The newcomer is the new minimum; demote the old slot holder.
			w.events.push(w.next)
			w.next = e
		} else {
			w.events.push(e)
		}
		return
	}
	if len(w.events) == 0 || e.less(w.events[0]) {
		w.next, w.hasNext = e, true
		return
	}
	w.events.push(e)
}

// pending returns the number of queued events, bypass slot included.
func (w *eventWheel) pending() int {
	n := len(w.events)
	if w.hasNext {
		n++
	}
	return n
}

// peekTime returns the earliest pending event time.
func (w *eventWheel) peekTime() (uint64, bool) {
	if w.hasNext {
		return w.next.t, true
	}
	if len(w.events) > 0 {
		return w.events[0].t, true
	}
	return 0, false
}

// pop removes and returns the earliest pending event. The slot, when
// occupied, is always the minimum (schedule maintains that invariant).
func (w *eventWheel) pop() event {
	if w.hasNext {
		e := w.next
		w.next = event{}
		w.hasNext = false
		return e
	}
	return w.events.pop()
}

// setReference switches the wheel between bypass-slot and pure-heap
// scheduling. Enabling reference mode drains the slot into the heap so no
// pending event is lost.
func (w *eventWheel) setReference(on bool) {
	w.reference = on
	if on && w.hasNext {
		w.events.push(w.next)
		w.next = event{}
		w.hasNext = false
	}
}

// setWindowTicks installs or clears the periodic boundary callback.
func (w *eventWheel) setWindowTicks(length uint64, fn func(boundary uint64)) {
	if length == 0 || fn == nil {
		w.winLen, w.winNext, w.winFn = 0, 0, nil
		return
	}
	w.winLen = length
	w.winFn = fn
	// Resume from the watermark so mid-run installation never replays
	// boundaries the run already passed.
	w.winNext = (w.now/length + 1) * length
}

// fireBoundaries fires, in order, every window tick the next dispatch (at
// time next) is about to cross. An event at exactly the boundary belongs to
// the new window, so ticks at or before next fire first.
func (w *eventWheel) fireBoundaries(next uint64) {
	for w.winLen > 0 && next >= w.winNext {
		b := w.winNext
		w.winNext += w.winLen
		w.winFn(b)
	}
}

// Machine is the simulated multicore system.
type Machine struct {
	Hier     *cache.Hierarchy
	topo     cache.Topology
	lineSize uint64 // cached Hier line size (hot path)
	cores    []*Core
	ctxs     []Ctx

	wheel eventWheel

	accessHooks []AccessHook
	armers      []HookArm // parallel to accessHooks
	alwaysOn    int       // access hooks with no arming declaration
	ranges      []WatchRange
	workHooks   []WorkHook

	// reference selects the retained pre-optimization dispatch paths: every
	// access dispatches to every hook, and the event wheel runs pure-heap.
	// The differential equivalence suite runs both modes and requires
	// byte-identical output.
	reference bool

	// Overhead tallies profiling costs by category; Table 6.9 reports the
	// breakdown. Categories used: "interrupt", "memory", "communication".
	Overhead map[string]uint64

	// snapshotters capture attached-component state (profilers, allocator,
	// kernel, workloads) alongside the machine's own in Snapshot/Restore.
	// Order is registration order (see AddSnapshotter).
	snapshotters []Snapshotter
}

// defaultReference, when set, makes every subsequently built Machine start in
// reference mode (see SetReference). It exists so harnesses that build
// machines deep inside other packages (the experiment engine) can select the
// reference path without threading a flag through every constructor.
var defaultReference atomic.Bool

// SetDefaultReference selects the dispatch mode of machines built after the
// call. It does not affect already-built machines.
func SetDefaultReference(on bool) { defaultReference.Store(on) }

// New builds a machine.
func New(cfg Config) *Machine {
	topo := cfg.Topology
	if topo == (cache.Topology{}) {
		if cfg.Cores <= 0 {
			panic("sim: core count must be positive")
		}
		topo = cache.SingleSocket(cfg.Cores)
	} else if cfg.Cores != 0 && cfg.Cores != topo.NumCores() {
		panic(fmt.Sprintf("sim: Cores=%d contradicts topology %s (%d cores)",
			cfg.Cores, topo, topo.NumCores()))
	}
	n := topo.NumCores()
	m := &Machine{
		Hier:     cache.NewTopo(cfg.Cache, topo),
		topo:     topo,
		lineSize: cfg.Cache.LineSize,
		Overhead: make(map[string]uint64),
	}
	m.cores = make([]*Core, n)
	m.ctxs = make([]Ctx, n)
	for i := range m.cores {
		seed := cfg.Seed + int64(i) + 1
		src := newCountedSource(seed)
		m.cores[i] = &Core{ID: i, Socket: topo.SocketOf(i), hookArm: ArmNever, seed: seed, src: src, rng: rand.New(src)}
		m.ctxs[i] = Ctx{M: m, Core: m.cores[i]}
	}
	if defaultReference.Load() {
		m.SetReference(true)
	}
	return m
}

// SetReference switches the machine (and its hierarchy and event wheel)
// between the optimized hot paths and the retained reference paths. Both
// produce byte-identical simulations; reference mode exists so the
// equivalence suite and benchmarks can prove and measure that. It is runtime
// state, not configuration: it must never influence results.
func (m *Machine) SetReference(on bool) {
	m.reference = on
	m.wheel.setReference(on)
	m.Hier.SetReference(on)
	m.Rearm()
}

// Reference reports whether the machine runs the reference paths.
func (m *Machine) Reference() bool { return m.reference }

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Topology returns the machine's socket layout.
func (m *Machine) Topology() cache.Topology { return m.topo }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Ctx returns the execution context bound to core i (for direct use by
// drivers and tests; scheduled tasks receive it as an argument).
func (m *Machine) Ctx(i int) *Ctx { return &m.ctxs[i] }

// Now returns the dispatch watermark: the scheduled time of the most recently
// started task.
func (m *Machine) Now() uint64 { return m.wheel.now }

// MaxCoreTime returns the furthest-advanced core clock.
func (m *Machine) MaxCoreTime() uint64 {
	var mx uint64
	for _, c := range m.cores {
		if c.now > mx {
			mx = c.now
		}
	}
	return mx
}

// AddAccessHook registers an always-on hook over all memory accesses.
func (m *Machine) AddAccessHook(h AccessHook) { m.AddArmedAccessHook(h, HookArm{}) }

// AddArmedAccessHook registers an access hook together with its arming
// declaration. When every registered hook is armed, accesses before the
// earliest arm time (and outside every watch range) skip hook dispatch
// entirely — no AccessEvent population, no indirect calls — which is the
// sampling hardware's actual behavior: untagged accesses cost nothing.
// Dispatch order is registration order, and when any access is delivered it
// is delivered to all hooks (each filters internally), so armed dispatch is
// observationally identical to always-on dispatch.
func (m *Machine) AddArmedAccessHook(h AccessHook, arm HookArm) {
	m.accessHooks = append(m.accessHooks, h)
	m.armers = append(m.armers, arm)
	if arm.NextTime == nil && arm.Ranges == nil {
		m.alwaysOn++
	}
	m.Rearm()
}

// AddWorkHook registers a hook over compute-cycle charging.
func (m *Machine) AddWorkHook(h WorkHook) {
	m.workHooks = append(m.workHooks, h)
	m.Rearm()
}

// Rearm recomputes the per-core arm times and active watch ranges from every
// registered hook's arming declaration. Hooks call it whenever their arming
// state changes outside a delivered access (Start/Stop, watchpoint installs).
func (m *Machine) Rearm() {
	m.ranges = m.ranges[:0]
	for _, a := range m.armers {
		if a.Ranges == nil {
			continue
		}
		m.ranges = append(m.ranges, a.Ranges()...)
	}
	for _, c := range m.cores {
		m.rearmCore(c)
	}
}

// rearmCore recomputes one core's arm time: the minimum over every armed
// hook's next-access deadline. In reference mode (or with any always-on hook
// registered) the core is permanently armed.
func (m *Machine) rearmCore(c *Core) {
	if m.reference {
		// Reference dispatch is the pre-optimization gate: dispatch on every
		// access whenever any hook is registered.
		if len(m.accessHooks) > 0 || len(m.workHooks) > 0 {
			c.hookArm = ArmAlways
		} else {
			c.hookArm = ArmNever
		}
		return
	}
	if m.alwaysOn > 0 {
		c.hookArm = ArmAlways
		return
	}
	arm := ArmNever
	for _, a := range m.armers {
		if a.NextTime == nil {
			continue
		}
		if t := a.NextTime(c.ID); t < arm {
			arm = t
		}
	}
	c.hookArm = arm
}

// rangeHit reports whether [addr, addr+size) overlaps any active watch range.
func (m *Machine) rangeHit(addr uint64, size uint32) bool {
	for _, r := range m.ranges {
		if addr < r.Addr+uint64(r.Len) && r.Addr < addr+uint64(size) {
			return true
		}
	}
	return false
}

// SetWindowTicks installs a periodic boundary callback: fn fires once per
// multiple of length cycles, in order, before any event scheduled at or past
// that boundary is dispatched. A task that starts before a boundary may run
// past it — boundaries align with the dispatch watermark, not with per-access
// times — which keeps the tick deterministic without slicing tasks. fn must
// not schedule events or issue simulated accesses; it is an observation
// point (profilers merge their accounting there). length 0 (or nil fn)
// removes the ticks.
func (m *Machine) SetWindowTicks(length uint64, fn func(boundary uint64)) {
	m.wheel.setWindowTicks(length, fn)
}

// Schedule queues fn to run on core at absolute time t (or as soon as the
// core is free, if later).
func (m *Machine) Schedule(core int, t uint64, fn TaskFunc) {
	if core < 0 || core >= len(m.cores) {
		panic(fmt.Sprintf("sim: schedule on core %d of %d", core, len(m.cores)))
	}
	m.wheel.schedule(t, core, fn)
}

// Pending returns the number of queued events.
func (m *Machine) Pending() int { return m.wheel.pending() }

// Run dispatches events in time order until the queue is empty or the next
// event is scheduled after `until`. It returns the number of tasks run.
func (m *Machine) Run(until uint64) int {
	n := 0
	w := &m.wheel
	for {
		t, ok := w.peekTime()
		if !ok || t > until {
			break
		}
		// Fire window boundaries the next event is about to cross.
		w.fireBoundaries(t)
		ev := w.pop()
		core := m.cores[ev.core]
		if core.now < ev.t {
			core.idle += ev.t - core.now
			core.now = ev.t
		}
		w.now = ev.t
		ev.fn(&m.ctxs[ev.core])
		n++
	}
	return n
}

// RunAll dispatches until no events remain.
func (m *Machine) RunAll() int { return m.Run(^uint64(0)) }

// Ctx is the interface workload code uses to execute on a core.
type Ctx struct {
	M    *Machine
	Core *Core
}

// Enter pushes a function onto the core's call stack. Use with defer:
//
//	defer c.Leave(c.Enter("dev_queue_xmit"))
func (c *Ctx) Enter(fn string) sym.PC {
	pc := sym.Intern(fn)
	c.Core.stack = append(c.Core.stack, pc)
	return pc
}

// EnterPC pushes an already-interned function.
func (c *Ctx) EnterPC(pc sym.PC) sym.PC {
	c.Core.stack = append(c.Core.stack, pc)
	return pc
}

// Leave pops the current function. The argument (the PC returned by Enter) is
// only there to make the defer idiom read well and to catch mismatches.
func (c *Ctx) Leave(pc sym.PC) {
	n := len(c.Core.stack)
	if n == 0 {
		panic("sim: Leave with empty call stack")
	}
	if c.Core.stack[n-1] != pc {
		panic(fmt.Sprintf("sim: Leave(%s) but innermost is %s",
			sym.Name(pc), sym.Name(c.Core.stack[n-1])))
	}
	c.Core.stack = c.Core.stack[:n-1]
}

// Fn returns the innermost function.
func (c *Ctx) Fn() sym.PC { return c.Core.Fn() }

// Now returns the core's cycle clock.
func (c *Ctx) Now() uint64 { return c.Core.now }

// Read performs a load of size bytes at addr.
func (c *Ctx) Read(addr uint64, size uint32) { c.access(addr, size, false) }

// Write performs a store of size bytes at addr.
func (c *Ctx) Write(addr uint64, size uint32) { c.access(addr, size, true) }

func (c *Ctx) access(addr uint64, size uint32, write bool) {
	if size == 0 {
		return
	}
	m, core := c.M, c.Core
	ls := m.lineSize
	end := addr + uint64(size)
	for cur := addr; cur < end; {
		lineEnd := (cur &^ (ls - 1)) + ls
		n := lineEnd - cur
		if end-cur < n {
			n = end - cur
		}
		res := m.Hier.Access(core.ID, cur, write)
		core.now += uint64(res.Latency)
		core.retired++
		if !core.inHook {
			// Armed dispatch: deliver only when some hook's arm time has
			// arrived (compared against the same post-access clock the hooks
			// themselves gate on) or a watch range overlaps. Undelivered
			// accesses still feed always-on work hooks — those observe every
			// access by contract.
			if core.now >= core.hookArm || (len(m.ranges) > 0 && m.rangeHit(cur, uint32(n))) {
				c.dispatchHooks(cur, uint32(n), write, res)
				m.rearmCore(core)
			} else if len(m.workHooks) > 0 {
				c.dispatchWork(res)
			}
		}
		cur += n
	}
}

// dispatchWork notifies work hooks about one access whose event no armed
// access hook asked for.
func (c *Ctx) dispatchWork(res cache.Result) {
	core := c.Core
	pc := core.Fn()
	core.inHook = true
	for _, h := range c.M.workHooks {
		h(c, pc, uint64(res.Latency))
	}
	core.inHook = false
}

// dispatchHooks notifies access and work hooks about one completed line
// access. It reuses the core's scratch AccessEvent so the hot path performs
// no allocation (the event would otherwise escape to the heap on every
// access — ~80% of all allocations in the experiment suite).
func (c *Ctx) dispatchHooks(addr uint64, size uint32, write bool, res cache.Result) {
	core := c.Core
	pc := core.Fn()
	core.inHook = true
	if len(c.M.accessHooks) > 0 {
		ev := &core.ev
		ev.Time = core.now
		ev.Core = core.ID
		ev.PC = pc
		ev.Addr = addr
		ev.Size = size
		ev.Write = write
		ev.Level = res.Level
		ev.Latency = res.Latency
		for _, h := range c.M.accessHooks {
			h(c, ev)
		}
	}
	for _, h := range c.M.workHooks {
		h(c, pc, uint64(res.Latency))
	}
	core.inHook = false
}

// Compute charges n cycles of pure computation to the current function.
func (c *Ctx) Compute(n uint64) {
	c.Core.now += n
	if len(c.M.workHooks) > 0 && !c.Core.inHook {
		c.Core.inHook = true
		for _, h := range c.M.workHooks {
			h(c, c.Core.Fn(), n)
		}
		c.Core.inHook = false
	}
}

// ChargeOverhead charges n cycles of profiling overhead in the named
// category ("interrupt", "memory", "communication"). The cycles delay the
// core — that is the measured overhead in §6.3/§6.4 — and are tallied on the
// machine for the Table 6.9 breakdown.
func (c *Ctx) ChargeOverhead(category string, n uint64) {
	c.Core.now += n
	c.M.Overhead[category] += n
}

// Spawn schedules fn on the given core, delay cycles after the current
// core's clock.
func (c *Ctx) Spawn(core int, delay uint64, fn TaskFunc) {
	c.M.Schedule(core, c.Core.now+delay, fn)
}

// Rand returns the core-local RNG (deterministic per seed and core).
func (c *Ctx) Rand() *rand.Rand { return c.Core.rng }
