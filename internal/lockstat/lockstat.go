// Package lockstat provides simulated kernel spinlocks and the lock-stat
// baseline profiler the paper compares DProf against (§6.1.2, §6.2.2).
//
// A Lock occupies 8 bytes of simulated memory, so acquiring and releasing it
// generates real coherence traffic on the enclosing structure's cache lines —
// which is how lock bouncing contributes to the data profile of types like
// net_device and udp_sock. Contention is modeled with release timestamps:
// a task acquiring a lock whose release time lies in its future busy-waits
// (spinning with periodic reads of the lock word) until that time.
//
// Every lock belongs to a Class; classes accumulate the statistics the
// lock-stat tool reports: wait time, hold time, acquisition counts, and the
// functions that acquired the lock.
package lockstat

import (
	"fmt"
	"sort"
	"strings"

	"dprof/internal/sim"
	"dprof/internal/sym"
)

// Class aggregates statistics for all locks of one kind (e.g. "Qdisc lock").
type Class struct {
	Name string

	Acquisitions uint64
	Contentions  uint64
	WaitCycles   uint64
	HoldCycles   uint64

	// sites is a move-to-front list rather than a map: a class is acquired
	// from a handful of call sites, and the bump on every Acquire sits on
	// the simulator's hot path where a short scan beats map hashing.
	sites []siteCount
}

type siteCount struct {
	pc sym.PC
	n  uint64
}

// bumpSite counts one acquisition from pc, keeping the hottest site in front.
func (c *Class) bumpSite(pc sym.PC) {
	s := c.sites
	for i := range s {
		if s[i].pc == pc {
			s[i].n++
			if i > 0 {
				s[0], s[i] = s[i], s[0]
			}
			return
		}
	}
	c.sites = append(s, siteCount{pc, 1})
}

func (c *Class) siteCountOf(pc sym.PC) uint64 {
	for _, sc := range c.sites {
		if sc.pc == pc {
			return sc.n
		}
	}
	return 0
}

// Sites returns the acquiring functions ordered by acquisition count.
func (c *Class) Sites() []sym.PC {
	out := make([]sym.PC, 0, len(c.sites))
	for _, sc := range c.sites {
		out = append(out, sc.pc)
	}
	sort.Slice(out, func(i, j int) bool {
		if ci, cj := c.siteCountOf(out[i]), c.siteCountOf(out[j]); ci != cj {
			return ci > cj
		}
		return sym.Name(out[i]) < sym.Name(out[j])
	})
	return out
}

// Registry holds all lock classes for one simulated machine.
type Registry struct {
	classes map[string]*Class
	order   []*Class
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{classes: make(map[string]*Class)}
}

// Class returns (creating if needed) the class with the given name.
func (r *Registry) Class(name string) *Class {
	if c, ok := r.classes[name]; ok {
		return c
	}
	c := &Class{Name: name}
	r.classes[name] = c
	r.order = append(r.order, c)
	return c
}

// Classes returns all classes in registration order.
func (r *Registry) Classes() []*Class { return append([]*Class(nil), r.order...) }

// Reset zeroes all statistics but keeps the classes.
func (r *Registry) Reset() {
	for _, c := range r.order {
		c.Acquisitions, c.Contentions, c.WaitCycles, c.HoldCycles = 0, 0, 0, 0
		c.sites = nil
	}
}

// Lock is one spinlock instance.
type Lock struct {
	class *Class
	addr  uint64 // 8 bytes of simulated memory holding the lock word

	releaseAt uint64
	holdFrom  uint64
	holder    int
	held      bool
}

// NewLock creates a lock of the given class whose lock word lives at addr.
func NewLock(class *Class, addr uint64) *Lock {
	return &Lock{class: class, addr: addr, holder: -1}
}

// Class returns the lock's class.
func (l *Lock) Class() *Class { return l.class }

// Addr returns the simulated address of the lock word.
func (l *Lock) Addr() uint64 { return l.addr }

// spinReadGap is how many cycles a spinning core pauses between re-reads of
// the lock word (the PAUSE loop of a real spinlock).
const spinReadGap = 150

// MaxSpinWait bounds one acquisition's recognized wait. The event simulator
// runs tasks to completion, so core clocks skew by up to a task length;
// without a bound, that skew would masquerade as lock contention. Real
// spinlock waits in this system are far below this bound.
const MaxSpinWait = 2000

// Acquire takes the lock, spinning until the current holder's simulated
// release time if necessary.
func (l *Lock) Acquire(c *sim.Ctx) {
	pc := c.Fn()
	c.Read(l.addr, 8) // initial test of the lock word
	now := c.Now()
	if l.releaseAt > now {
		until := l.releaseAt
		if until-now > MaxSpinWait {
			until = now + MaxSpinWait
		}
		l.class.Contentions++
		l.class.WaitCycles += until - now
		// Spin: re-read the lock word until the holder's release time.
		// These reads are real simulated accesses, so a contended lock
		// line ping-pongs between caches exactly as in hardware.
		for c.Now() < until {
			c.Compute(spinReadGap)
			if c.Now() >= until {
				break
			}
			c.Read(l.addr, 8)
		}
	}
	c.Write(l.addr, 8) // the winning atomic exchange
	l.class.Acquisitions++
	l.class.bumpSite(pc)
	l.held = true
	l.holder = c.Core.ID
	l.holdFrom = c.Now()
	if l.releaseAt < c.Now() {
		l.releaseAt = c.Now() // still held; will move forward on Release
	}
}

// Release drops the lock.
func (l *Lock) Release(c *sim.Ctx) {
	if !l.held {
		panic(fmt.Sprintf("lockstat: release of unheld lock %q", l.class.Name))
	}
	c.Write(l.addr, 8)
	l.held = false
	l.holder = -1
	now := c.Now()
	if now > l.holdFrom {
		l.class.HoldCycles += now - l.holdFrom
	}
	if now > l.releaseAt {
		l.releaseAt = now
	}
}

// Report is the lock-stat output: one row per class with any activity,
// ordered by wait time, mirroring Tables 6.2 and 6.6.
type Report struct {
	Rows        []Row
	TotalCycles uint64 // denominator for the overhead column
}

// Row is one lock class's statistics.
type Row struct {
	Name         string
	WaitCycles   uint64
	HoldCycles   uint64
	Acquisitions uint64
	Contentions  uint64
	OverheadPct  float64
	Functions    []string
}

// BuildReport renders the registry against a total-CPU-cycle denominator
// (cores × measured interval).
func (r *Registry) BuildReport(totalCycles uint64) Report {
	rep := Report{TotalCycles: totalCycles}
	for _, c := range r.order {
		if c.Acquisitions == 0 {
			continue
		}
		row := Row{
			Name:         c.Name,
			WaitCycles:   c.WaitCycles,
			HoldCycles:   c.HoldCycles,
			Acquisitions: c.Acquisitions,
			Contentions:  c.Contentions,
		}
		if totalCycles > 0 {
			row.OverheadPct = 100 * float64(c.WaitCycles) / float64(totalCycles)
		}
		for i, pc := range c.Sites() {
			if i == 4 { // lock-stat prints a handful of sites
				break
			}
			row.Functions = append(row.Functions, sym.Name(pc))
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].WaitCycles > rep.Rows[j].WaitCycles })
	return rep
}

// String renders the report as a table like the paper's Tables 6.2/6.6.
func (rep Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %9s  %s\n", "Lock Name", "Wait Time", "Overhead", "Functions")
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "%-20s %10.4fs %8.2f%%  %s\n",
			row.Name,
			float64(row.WaitCycles)/float64(sim.Freq),
			row.OverheadPct,
			strings.Join(row.Functions, ", "))
	}
	return b.String()
}
