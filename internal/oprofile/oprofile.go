// Package oprofile implements the code-profiler baseline the paper compares
// DProf against (§6.1.3, §6.2.3): functions ranked by share of clock cycles
// and by share of L2 misses, like OProfile driven by hardware counters.
//
// It demonstrates the paper's point: the output is a flat list of functions,
// each with a small percentage, with no way to tell that many of them miss
// on the *same data*.
package oprofile

import (
	"fmt"
	"sort"
	"strings"

	"dprof/internal/cache"
	"dprof/internal/sim"
	"dprof/internal/sym"
)

// fnStats accumulates per-function counters.
type fnStats struct {
	cycles   uint64
	l2Misses uint64 // accesses that missed the private L2 (L3/foreign/DRAM)
	accesses uint64
}

// Profiler attributes cycles and cache events to code locations.
type Profiler struct {
	m       *sim.Machine
	fns     map[sym.PC]*fnStats
	total   fnStats
	enabled bool
}

// Attach hooks the profiler into the machine. It starts disabled.
func Attach(m *sim.Machine) *Profiler {
	p := &Profiler{m: m, fns: make(map[sym.PC]*fnStats, 256)}
	// Armed on enablement: while stopped, the machine skips access-event
	// dispatch for this hook entirely.
	m.AddArmedAccessHook(p.onAccess, sim.HookArm{NextTime: p.nextArm})
	m.AddWorkHook(p.onWork)
	m.AddSnapshotter(p)
	return p
}

// nextArm arms the access hook while collection is enabled.
func (p *Profiler) nextArm(int) uint64 {
	if p.enabled {
		return sim.ArmAlways
	}
	return sim.ArmNever
}

// Start enables collection.
func (p *Profiler) Start() {
	p.enabled = true
	p.m.Rearm()
}

// Stop disables collection.
func (p *Profiler) Stop() {
	p.enabled = false
	p.m.Rearm()
}

// Reset clears all counters.
func (p *Profiler) Reset() {
	p.fns = make(map[sym.PC]*fnStats, 256)
	p.total = fnStats{}
}

func (p *Profiler) statsFor(pc sym.PC) *fnStats {
	s := p.fns[pc]
	if s == nil {
		s = &fnStats{}
		p.fns[pc] = s
	}
	return s
}

func (p *Profiler) onAccess(c *sim.Ctx, ev *sim.AccessEvent) {
	if !p.enabled {
		return
	}
	s := p.statsFor(ev.PC)
	s.accesses++
	p.total.accesses++
	if ev.Level != cache.L1Hit && ev.Level != cache.L2Hit {
		s.l2Misses++
		p.total.l2Misses++
	}
}

func (p *Profiler) onWork(c *sim.Ctx, pc sym.PC, cycles uint64) {
	if !p.enabled {
		return
	}
	p.statsFor(pc).cycles += cycles
	p.total.cycles += cycles
}

// Row is one function in the report.
type Row struct {
	Function string
	ClkPct   float64
	L2Pct    float64
}

// Report is the OProfile output: functions ranked by clock share, mirroring
// Table 6.3.
type Report struct {
	Rows []Row
}

// BuildReport ranks functions by cycle share; minPct filters noise rows the
// way the paper's table cuts off below ~1%.
func (p *Profiler) BuildReport(minPct float64) Report {
	var rep Report
	for pc, s := range p.fns {
		if pc == sym.None {
			continue
		}
		row := Row{Function: sym.Name(pc)}
		if p.total.cycles > 0 {
			row.ClkPct = 100 * float64(s.cycles) / float64(p.total.cycles)
		}
		if p.total.l2Misses > 0 {
			row.L2Pct = 100 * float64(s.l2Misses) / float64(p.total.l2Misses)
		}
		if row.ClkPct < minPct && row.L2Pct < minPct {
			continue
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].ClkPct != rep.Rows[j].ClkPct {
			return rep.Rows[i].ClkPct > rep.Rows[j].ClkPct
		}
		return rep.Rows[i].Function < rep.Rows[j].Function
	})
	return rep
}

// String renders the report like Table 6.3.
func (rep Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s  %s\n", "% CLK", "% L2 Misses", "Function")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%5.1f%% %11.2f%%  %s\n", r.ClkPct, r.L2Pct, r.Function)
	}
	return b.String()
}
