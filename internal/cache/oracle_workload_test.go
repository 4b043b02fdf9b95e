package cache_test

import (
	"testing"

	_ "dprof/internal/app/all" // register every workload
	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/sim"
)

// access is one recorded hierarchy access of a workload run: who issued it,
// the page home it saw, and the Result the hierarchy returned.
type access struct {
	addr  uint64
	res   cache.Result
	core  int32
	home  int8
	write bool
}

// recordWorkload runs name's quick configuration unprofiled, with one
// always-on hook recording every access, until at least prefix accesses are
// recorded. The load generators are primed without a stop time, so the
// prefix rather than the quick windows ends the run. It fails the test
// unless the record holds every access the hierarchy counted: no access may
// bypass the hook.
//
// Some workloads touch memory while they are built (listening sockets, RX
// rings), before any hook can be attached. Those accesses cannot be
// recorded, so the hierarchy is restarted cold after the build, by restoring
// the checkpoint of a fresh hierarchy of the same geometry. That would also
// drop the page homes the build assigned, so it is only done on
// single-socket machines, where no home is ever recorded.
func recordWorkload(t *testing.T, name string, prefix int) (*sim.Machine, []access) {
	t.Helper()
	w, err := workload.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(workload.Defaults(w).WithQuick(true))
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Machine()
	if n := m.Hier.Totals().Accesses; n > 0 {
		if m.Topology().Sockets > 1 {
			t.Fatalf("%d accesses while building a %s machine: a cold restart would lose page homes", n, m.Topology())
		}
		m.Hier.Restore(cache.NewTopo(m.Hier.Config(), m.Topology()).Checkpoint())
	}
	rec := make([]access, 0, prefix+prefix/4)
	m.AddAccessHook(func(_ *sim.Ctx, ev *sim.AccessEvent) {
		rec = append(rec, access{
			addr:  ev.Addr,
			res:   cache.Result{Level: ev.Level, Latency: ev.Latency},
			core:  int32(ev.Core),
			home:  int8(m.Hier.HomeOf(ev.Addr)),
			write: ev.Write,
		})
	})
	core.Prime(inst, sim.Unbounded)
	const step = 10_000 // cycles per Run slice: bounds the overshoot past prefix
	for until := uint64(step); len(rec) < prefix && m.Pending() > 0; until += step {
		m.Run(until)
	}
	if got := m.Hier.Totals().Accesses; got != uint64(len(rec)) {
		t.Fatalf("recorded %d accesses, hierarchy counted %d", len(rec), got)
	}
	return m, rec
}

// TestOracleWorkloadStreams replays a prefix of every registered workload's
// quick run through the oracle, built with the workload's cache
// configuration and topology, and requires the recorded Result of every
// access, and every core's counters and the resident lines at the cut.
func TestOracleWorkloadStreams(t *testing.T) {
	prefix := 1_000_000
	if testing.Short() {
		prefix = 100_000
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			m, rec := recordWorkload(t, name, prefix)
			if len(rec) < prefix {
				t.Fatalf("run ended after %d accesses, want a prefix of %d", len(rec), prefix)
			}
			o := newOracle(m.Hier.Config(), m.Topology())
			for i, a := range rec {
				if a.home >= 0 {
					o.setPageHome(a.addr, int(a.home))
				}
				if r := o.access(int(a.core), a.addr, a.write); r != a.res {
					t.Fatalf("access %d (core %d addr %#x write %v): hierarchy %v/%d, oracle %v/%d",
						i, a.core, a.addr, a.write, a.res.Level, a.res.Latency, r.Level, r.Latency)
				}
			}
			for c := range o.cores {
				if got, want := m.Hier.CoreStats(c), o.cores[c].stats; got != want {
					t.Fatalf("core %d stats after %d accesses:\nhierarchy %+v\noracle    %+v", c, len(rec), got, want)
				}
			}
			if err := checkContents(m.Hier, o); err != nil {
				t.Fatalf("after %d accesses: %v", len(rec), err)
			}
			t.Logf("%d accesses agree", len(rec))
		})
	}
}
