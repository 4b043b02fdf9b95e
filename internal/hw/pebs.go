package hw

import "dprof/internal/sim"

// PEBSInterruptCycles is the cost of draining one PEBS record. PEBS writes
// records to a memory buffer and interrupts on buffer fill, so the per-sample
// cost is lower than IBS's read-the-register-file interrupt.
const PEBSInterruptCycles = 1200

// PEBS models Intel's Precise Event-Based Sampling in its load-latency
// configuration (the hardware §2.2 says DProf can use on Intel machines):
// it samples only memory accesses whose latency meets a threshold, so at an
// equal interrupt budget almost every delivered sample is a cache miss.
// The ext-pebs experiment compares its sample efficiency against IBS.
type PEBS struct {
	m       *sim.Machine
	handler IBSHandler

	enabled  bool
	interval uint64 // mean cycles between armed samples, per core
	next     []uint64

	// LatencyThreshold filters samples: only accesses with latency >= the
	// threshold are captured (Intel's MEM_TRANS_RETIRED.LOAD_LATENCY).
	LatencyThreshold uint32

	// InterruptCycles is charged per delivered sample.
	InterruptCycles uint64

	delivered uint64
	skipped   uint64 // armed samples discarded below the threshold
}

// NewPEBS attaches a PEBS unit to the machine. It starts disabled.
func NewPEBS(m *sim.Machine) *PEBS {
	p := &PEBS{
		m:               m,
		next:            make([]uint64, m.NumCores()),
		InterruptCycles: PEBSInterruptCycles,
	}
	// Armed registration mirrors IBS. A below-threshold armed access does
	// not re-arm (next stays in the past), so the machine keeps delivering
	// every access until one qualifies — exactly the hardware's behavior.
	m.AddArmedAccessHook(p.onAccess, sim.HookArm{NextTime: p.nextArm})
	sim.RewindValues(m, p)
	sim.RewindSlices(m, &p.next)
	return p
}

// nextArm reports the core-local cycle of the next armed sample.
func (p *PEBS) nextArm(core int) uint64 {
	if !p.enabled {
		return sim.ArmNever
	}
	return p.next[core]
}

// Start enables sampling: the unit arms at the given rate and delivers the
// first at-or-above-threshold access after each arming.
func (p *PEBS) Start(armsPerSecPerCore float64, threshold uint32, h IBSHandler) {
	if armsPerSecPerCore <= 0 {
		panic("hw: PEBS rate must be positive")
	}
	p.interval = uint64(float64(sim.Freq) / armsPerSecPerCore)
	if p.interval == 0 {
		p.interval = 1
	}
	p.LatencyThreshold = threshold
	p.handler = h
	p.enabled = true
	for i := range p.next {
		p.next[i] = p.m.Core(i).Now() + uint64(p.m.Core(i).Rand().Int63n(int64(p.interval)+1))
	}
	p.m.Rearm()
}

// Stop disables sampling.
func (p *PEBS) Stop() {
	p.enabled = false
	p.m.Rearm()
}

// Delivered returns delivered (above-threshold) samples.
func (p *PEBS) Delivered() uint64 { return p.delivered }

// Skipped returns armed samples discarded for being below the threshold.
func (p *PEBS) Skipped() uint64 { return p.skipped }

func (p *PEBS) onAccess(c *sim.Ctx, ev *sim.AccessEvent) {
	if !p.enabled || ev.Time < p.next[ev.Core] {
		return
	}
	if ev.Latency < p.LatencyThreshold {
		// The armed counter stays armed until a qualifying access retires;
		// account the discard but do not re-arm.
		p.skipped++
		return
	}
	jitter := p.interval/2 + uint64(c.Rand().Int63n(int64(p.interval)+1))
	p.next[ev.Core] = ev.Time + jitter
	p.delivered++
	c.ChargeOverhead("pebs-interrupt", p.InterruptCycles)
	if p.handler != nil {
		p.handler(c, Sample{Ev: *ev})
	}
}
