// Package hw simulates the performance-monitoring hardware DProf depends on:
// AMD Instruction-Based Sampling (IBS) and x86 debug registers (§5.1, §5.3).
//
// IBS randomly tags in-flight memory accesses and, when a tagged access
// retires, raises an interrupt delivering {instruction address, data address,
// cache level, latency}. The interrupt costs the interrupted core ~2,000
// cycles (§6.3), which is exactly the profiling overhead Figure 6-2 sweeps.
//
// Debug registers are per-core watchpoints: each core has four, each covering
// at most eight contiguous bytes. Installing watchpoints on every core
// requires an IPI broadcast costing the initiating core ~130,000 cycles; each
// watchpoint trap costs ~1,000 cycles (§6.4). These constraints — few
// registers, tiny windows, costly setup — are what force DProf's design of
// per-offset histories assembled across many object lifetimes.
package hw

import (
	"fmt"

	"dprof/internal/sim"
)

// Paper cost constants (§6.3, §6.4), in cycles.
const (
	// IBSInterruptCycles is the cost of taking one IBS sample: half reading
	// the IBS register file, half interrupt entry/exit plus resolving the
	// data address to a type.
	IBSInterruptCycles = 2000
	// DebugTrapCycles is the cost of one debug-register trap.
	DebugTrapCycles = 1000
	// DebugSetupBroadcastCycles is the cost, on the initiating core, of
	// installing debug registers on all cores (IPI round).
	DebugSetupBroadcastCycles = 130000
	// DebugRemoteInstallCycles is the interruption each remote core suffers
	// while installing its registers.
	DebugRemoteInstallCycles = 1000
	// ObjectReserveCycles is the cost of reserving a fresh object with the
	// memory subsystem for profiling; together with the broadcast this gives
	// the paper's ~220,000-cycle per-object setup cost.
	ObjectReserveCycles = 90000
)

// MaxWatchBytes is the largest range one x86 debug register can cover.
const MaxWatchBytes = 8

// MaxVariableWatchBytes is the limit in the "variable-size debug register"
// extension mode (§7 of the paper wishes for this hardware; the simulator
// can provide it, and the ext-widewatch experiment measures how much of the
// collection cost it removes).
const MaxVariableWatchBytes = 4096

// NumDebugRegs is the number of debug registers per core.
const NumDebugRegs = 4

// Sample is one IBS access sample, as delivered to the interrupt handler.
type Sample struct {
	Ev sim.AccessEvent
}

// IBSHandler consumes samples inside the (simulated) interrupt.
type IBSHandler func(c *sim.Ctx, s Sample)

// IBS is the per-machine instruction-based-sampling unit.
type IBS struct {
	m       *sim.Machine
	handler IBSHandler

	enabled  bool
	interval uint64 // mean cycles between samples, per core
	next     []uint64

	// InterruptCycles is charged to the sampled core per delivery.
	InterruptCycles uint64

	delivered uint64
}

// NewIBS attaches an IBS unit to the machine. The unit starts disabled.
func NewIBS(m *sim.Machine) *IBS {
	u := &IBS{
		m:               m,
		next:            make([]uint64, m.NumCores()),
		InterruptCycles: IBSInterruptCycles,
	}
	// Armed registration: between sample deadlines the machine skips event
	// population and the call entirely; onAccess keeps its own guard, which
	// is what runs when an always-on hook makes the machine deliver every
	// access.
	m.AddArmedAccessHook(u.onAccess, sim.HookArm{NextTime: u.nextArm})
	// A checkpoint carries the sampling deadlines, enablement and delivery
	// counters a resumed measured phase depends on.
	sim.RewindValues(m, u)
	sim.RewindSlices(m, &u.next)
	return u
}

// nextArm reports the core-local cycle of the next sample deadline.
func (u *IBS) nextArm(core int) uint64 {
	if !u.enabled {
		return sim.ArmNever
	}
	return u.next[core]
}

// Start enables sampling at the given rate (samples per second per core) and
// installs the handler.
func (u *IBS) Start(samplesPerSecPerCore float64, h IBSHandler) {
	if samplesPerSecPerCore <= 0 {
		panic("hw: IBS rate must be positive")
	}
	u.interval = uint64(float64(sim.Freq) / samplesPerSecPerCore)
	if u.interval == 0 {
		u.interval = 1
	}
	u.handler = h
	u.enabled = true
	for i := range u.next {
		// Desynchronize cores so samples do not arrive in lockstep.
		u.next[i] = u.m.Core(i).Now() + uint64(u.m.Core(i).Rand().Int63n(int64(u.interval)+1))
	}
	u.m.Rearm()
}

// Stop disables sampling.
func (u *IBS) Stop() {
	u.enabled = false
	u.m.Rearm()
}

// Delivered returns the number of samples delivered since creation.
func (u *IBS) Delivered() uint64 { return u.delivered }

func (u *IBS) onAccess(c *sim.Ctx, ev *sim.AccessEvent) {
	if !u.enabled || ev.Time < u.next[ev.Core] {
		return
	}
	// Randomized next deadline: uniform in [0.5, 1.5) × interval, the
	// jittered tagging IBS hardware performs.
	jitter := u.interval/2 + uint64(c.Rand().Int63n(int64(u.interval)+1))
	u.next[ev.Core] = ev.Time + jitter
	u.delivered++
	c.ChargeOverhead("ibs-interrupt", u.InterruptCycles)
	if u.handler != nil {
		u.handler(c, Sample{Ev: *ev})
	}
}

// Watch describes one debug-register watchpoint.
type Watch struct {
	Addr uint64
	Len  uint32 // 1..8 bytes
}

func (w Watch) overlaps(addr uint64, size uint32) bool {
	return addr < w.Addr+uint64(w.Len) && w.Addr < addr+uint64(size)
}

// DebugHandler consumes watchpoint traps. reg identifies which register
// fired.
type DebugHandler func(c *sim.Ctx, ev *sim.AccessEvent, reg int)

// DebugRegs models the per-core debug registers, installed identically on
// every core (DProf watches an object from all CPUs at once).
type DebugRegs struct {
	m       *sim.Machine
	watches [NumDebugRegs]Watch
	inUse   int
	handler DebugHandler

	// Variable enables the variable-size watchpoint extension: windows up
	// to MaxVariableWatchBytes instead of the x86 limit of 8 bytes.
	Variable bool

	// TrapCycles is charged to the accessing core per trap.
	TrapCycles uint64

	traps  uint64
	setups uint64
}

// NewDebugRegs attaches a debug-register unit to the machine.
func NewDebugRegs(m *sim.Machine) *DebugRegs {
	d := &DebugRegs{m: m, TrapCycles: DebugTrapCycles}
	// Range-armed registration: watchpoints are address-gated, not
	// time-gated, so the unit publishes its active windows and the machine
	// only dispatches accesses overlapping one (the overlap predicate is the
	// same one onAccess applies per register).
	m.AddArmedAccessHook(d.onAccess, sim.HookArm{Ranges: d.activeRanges})
	sim.RewindValues(m, d)
	return d
}

// activeRanges publishes the installed watchpoints as machine watch ranges.
func (d *DebugRegs) activeRanges() []sim.WatchRange {
	if d.inUse == 0 {
		return nil
	}
	out := make([]sim.WatchRange, d.inUse)
	for i := 0; i < d.inUse; i++ {
		out[i] = sim.WatchRange{Addr: d.watches[i].Addr, Len: d.watches[i].Len}
	}
	return out
}

// SetAll installs the given watchpoints on every core, replacing any previous
// set, and registers the trap handler. The calling core pays the IPI
// broadcast cost and every other core is interrupted briefly to install its
// registers.
func (d *DebugRegs) SetAll(c *sim.Ctx, watches []Watch, h DebugHandler) {
	if len(watches) > NumDebugRegs {
		panic(fmt.Sprintf("hw: %d watchpoints exceed %d debug registers", len(watches), NumDebugRegs))
	}
	limit := uint32(MaxWatchBytes)
	if d.Variable {
		limit = MaxVariableWatchBytes
	}
	for _, w := range watches {
		if w.Len == 0 || w.Len > limit {
			panic(fmt.Sprintf("hw: watch length %d out of range [1,%d]", w.Len, limit))
		}
	}
	d.setups++
	c.ChargeOverhead("communication", DebugSetupBroadcastCycles)
	for i := 0; i < d.m.NumCores(); i++ {
		if i == c.Core.ID {
			continue
		}
		d.m.Schedule(i, c.Now(), func(rc *sim.Ctx) {
			rc.ChargeOverhead("communication", DebugRemoteInstallCycles)
		})
	}
	d.inUse = len(watches)
	for i := range d.watches {
		d.watches[i] = Watch{}
	}
	copy(d.watches[:], watches)
	d.handler = h
	d.m.Rearm()
}

// ClearAll removes all watchpoints. Clearing rides the next natural IPI and
// is modeled as free for the caller.
func (d *DebugRegs) ClearAll() {
	d.inUse = 0
	d.handler = nil
	d.m.Rearm()
}

// Active returns the number of installed watchpoints.
func (d *DebugRegs) Active() int { return d.inUse }

// Traps returns the number of traps delivered since creation.
func (d *DebugRegs) Traps() uint64 { return d.traps }

// Setups returns the number of SetAll broadcasts performed.
func (d *DebugRegs) Setups() uint64 { return d.setups }

func (d *DebugRegs) onAccess(c *sim.Ctx, ev *sim.AccessEvent) {
	if d.inUse == 0 {
		return
	}
	for i := 0; i < d.inUse; i++ {
		if d.watches[i].overlaps(ev.Addr, ev.Size) {
			d.traps++
			c.ChargeOverhead("interrupt", d.TrapCycles)
			if d.handler != nil {
				d.handler(c, ev, i)
			}
		}
	}
}
