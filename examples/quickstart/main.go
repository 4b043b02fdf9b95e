// Quickstart: write a custom workload and profile it with a core.Session.
//
// Two cores pass a "message" object back and forth (true sharing), while a
// third core streams through large private buffers (capacity misses). The
// data profile ranks the two types by misses, the miss classification
// separates sharing from capacity, and the data flow view shows exactly
// where the message hops between cores.
//
// The workload is an ordinary struct implementing core.Runnable — the same
// contract the registered workloads in internal/app satisfy: a machine, an
// allocator and a lock registry, a Start that schedules its tasks, and a
// Result that reads the run. The session owns the rest of the lifecycle:
// it sets the machine's measured window and stop horizon (which workloads
// read through sim.Ctx.Measured and sim.Machine.Horizon), starts the
// workload, runs the warmup, resets cache statistics, and runs the
// measured window (core.RunBare does the same without a profiler). To make a scenario available to cmd/dprof and the experiment
// engine, wrap a constructor like newPingPong in a workload.Workload and
// call workload.Register from init (see internal/app/scenarios for
// examples).
//
// Run: go run ./examples/quickstart   (-quick for a tiny smoke run)
package main

import (
	"flag"
	"fmt"
	"os"

	"dprof/internal/core"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// pingPong is the custom workload: machine, allocator, and access pattern.
type pingPong struct {
	m     *sim.Machine
	alloc *mem.Allocator
	locks *lockstat.Registry

	msgType *mem.Type
	bufType *mem.Type
	rounds  int

	handoffs uint64
	stopAt   uint64
}

// newPingPong builds a 4-core machine with the paper's cache hierarchy and
// a typed allocator, and registers the two object types. The generators
// stop at horizon. It is fixed here, not read off the machine: the
// streaming core's task starts at cycle zero and reads the horizon while
// it runs, when the machine's horizon is still unbounded.
func newPingPong(rounds int, horizon uint64) *pingPong {
	scfg := sim.DefaultConfig()
	scfg.Cores = 4
	m := sim.New(scfg)
	locks := lockstat.NewRegistry()
	alloc := mem.New(mem.DefaultConfig(), m.NumCores(), locks)
	w := &pingPong{m: m, alloc: alloc, locks: locks, rounds: rounds, stopAt: horizon}
	w.msgType = alloc.RegisterType("message", 64, "shared message buffer")
	w.bufType = alloc.RegisterType("stream_buf", 1024, "streaming scratch buffer")
	return w
}

// Machine, Alloc, and Locks satisfy core.Runnable.
func (w *pingPong) Machine() *sim.Machine     { return w.m }
func (w *pingPong) Alloc() *mem.Allocator     { return w.alloc }
func (w *pingPong) Locks() *lockstat.Registry { return w.locks }

// Start schedules the workload without running the machine. Core 0
// produces a message, core 1 consumes it — every handoff invalidates the
// other core's cached copy — while core 2 streams through private buffers
// far larger than its caches.
func (w *pingPong) Start() {
	var produce func(c *sim.Ctx)
	var consume func(c *sim.Ctx, addr uint64)
	sent := 0
	produce = func(c *sim.Ctx) {
		if sent >= w.rounds || c.Now() >= w.stopAt {
			return
		}
		sent++
		addr := w.alloc.Alloc(c, w.msgType)
		func() {
			defer c.Leave(c.Enter("producer_fill"))
			c.Write(addr, 64)
		}()
		c.Spawn(1, 200, func(cc *sim.Ctx) { consume(cc, addr) })
	}
	consume = func(c *sim.Ctx, addr uint64) {
		func() {
			defer c.Leave(c.Enter("consumer_read"))
			c.Read(addr, 64)
		}()
		w.alloc.Free(c, addr)
		w.handoffs++
		c.Spawn(0, 200, produce)
	}
	w.m.Schedule(0, 0, produce)

	w.m.Schedule(2, 0, func(c *sim.Ctx) {
		var bufs []uint64
		for i := 0; i < 1024; i++ {
			bufs = append(bufs, w.alloc.Alloc(c, w.bufType))
		}
		for pass := 0; pass < 40 && c.Now() < w.stopAt; pass++ {
			for _, b := range bufs {
				func() {
					defer c.Leave(c.Enter("stream_scan"))
					c.Read(b, 1024)
				}()
			}
		}
		for _, b := range bufs {
			w.alloc.Free(c, b)
		}
	})
}

// Result reports the handoffs of the whole run (quickstart has no warmup).
func (w *pingPong) Result(uint64) core.RunResult {
	return core.RunResult{
		Summary: fmt.Sprintf("quickstart: %d message handoffs", w.handoffs),
		Values:  map[string]float64{"handoffs": float64(w.handoffs)},
	}
}

func main() {
	quick := flag.Bool("quick", false, "tiny run for smoke tests")
	flag.Parse()
	rounds, measure := 20000, uint64(30_000_000)
	if *quick {
		rounds, measure = 2000, 8_000_000
	}

	// Attach DProf through a Session: it starts access sampling and queues
	// history collection for the dataflow target, then runs the workload.
	// (Each watched object costs ~220k cycles of setup broadcast, §6.4 —
	// one set keeps that overhead small next to the run window.)
	s, err := core.NewSession(newPingPong(rounds, measure), core.SessionConfig{
		Profiler: core.Config{SampleRate: 50_000},
		TypeName: "message",
		Sets:     1,
		Warmup:   0,
		Measure:  measure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res := s.Run()
	fmt.Printf("%s\n\n", res.Summary)

	fmt.Println("== data profile (types ranked by L1 misses) ==")
	fmt.Println(s.Profiler().DataProfile().String())

	fmt.Println("== miss classification ==")
	fmt.Println(core.RenderMissClassification(s.Profiler().MissClassification()))

	fmt.Println("== data flow for `message` ==")
	g := s.Profiler().DataFlow(s.Target())
	fmt.Println(g.Render())
	for _, e := range g.CrossCPUEdges() {
		fmt.Printf("message hops cores at: %s ==> %s (x%d)\n", e.From, e.To, e.Count)
	}
}
