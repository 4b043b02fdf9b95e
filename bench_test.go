// Package dprof_test holds the `go test -bench` micro and ablation
// benchmarks: one testing.B benchmark per table and figure in the paper's
// evaluation (quick configurations — run cmd/dprof-bench for the full
// versions), simulator and serving microbenchmarks, and ablations (directory
// vs snoop coherence, time-merge vs pairwise path construction, alien caches
// on the free path). The repo's end-to-end benchmark is perfbench
// (perfbench/README.md, `bash perfbench/run.sh`).
package dprof_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dprof/internal/app/memcachedsim"
	"dprof/internal/app/workload"
	"dprof/internal/cache"
	"dprof/internal/core"
	"dprof/internal/exp"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/serve"
	"dprof/internal/sim"
	"dprof/internal/sym"
)

// benchExperiment runs one named experiment per iteration and publishes a
// chosen value as a benchmark metric.
func benchExperiment(b *testing.B, name, metric string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(context.Background(), name, exp.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if metric != "" {
			b.ReportMetric(r.Values[metric], metric)
		}
	}
}

// benchEngine measures wall clock for a fixed experiment subset at a given
// worker count; comparing Workers=1 against Workers=N shows the parallel
// engine's speedup on multi-core runners.
func benchEngine(b *testing.B, workers int) {
	names := []string{"table6.1", "figure6.1", "table6.2", "table6.3"}
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunAll(context.Background(), names, exp.Options{Quick: true, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSerial(b *testing.B)   { benchEngine(b, 1) }
func BenchmarkEngineParallel(b *testing.B) { benchEngine(b, 0) }

// --- one benchmark per paper table/figure ---

func BenchmarkTable61(b *testing.B)  { benchExperiment(b, "table6.1", "size-1024_misspct") }
func BenchmarkFigure61(b *testing.B) { benchExperiment(b, "figure6.1", "cross_cpu_edges") }
func BenchmarkTable62(b *testing.B)  { benchExperiment(b, "table6.2", "Qdisc_lock_overhead_pct") }
func BenchmarkTable63(b *testing.B)  { benchExperiment(b, "table6.3", "functions_over_1pct") }
func BenchmarkMemcachedFix(b *testing.B) {
	benchExperiment(b, "fix-memcached", "speedup")
}
func BenchmarkTable64(b *testing.B) { benchExperiment(b, "table6.4", "tcp_sock_misspct") }
func BenchmarkTable65(b *testing.B) { benchExperiment(b, "table6.5", "tcp_sock_ws_growth") }
func BenchmarkTable66(b *testing.B) { benchExperiment(b, "table6.6", "futex_lock_overhead_pct") }
func BenchmarkApacheFix(b *testing.B) {
	benchExperiment(b, "fix-apache", "speedup")
}
func BenchmarkFigure62(b *testing.B) { benchExperiment(b, "figure6.2", "memcached_max") }
func BenchmarkTable67(b *testing.B)  { benchExperiment(b, "table6.7", "apache_size-1024_overhead_pct") }
func BenchmarkTable68(b *testing.B)  { benchExperiment(b, "table6.8", "apache_size-1024_hist_per_sec") }
func BenchmarkTable69(b *testing.B)  { benchExperiment(b, "table6.9", "size-1024_communication_pct") }
func BenchmarkFigure63(b *testing.B) { benchExperiment(b, "figure6.3", "baseline_paths") }
func BenchmarkTable610(b *testing.B) {
	benchExperiment(b, "table6.10", "memcached_size-1024_histories")
}

// --- the contention-scenario experiments (registry workloads) ---

func BenchmarkFalseshareScenario(b *testing.B) { benchExperiment(b, "falseshare", "speedup") }
func BenchmarkConflictScenario(b *testing.B)   { benchExperiment(b, "conflict", "speedup") }

// BenchmarkTrueshareScenario baselines the new lock-contention scenario: the
// speedup metric is the partitioning fix's gain over shared buckets.
func BenchmarkTrueshareScenario(b *testing.B) { benchExperiment(b, "trueshare", "speedup") }

// BenchmarkAlienPingScenario baselines the new remote-free scenario: the
// speedup metric is the local-free fix's gain over alien-cache drains.
func BenchmarkAlienPingScenario(b *testing.B) { benchExperiment(b, "alienping", "speedup") }

// benchScenarioRun measures one unprofiled scenario run through the
// registry (simulator throughput, no profiling overhead).
func benchScenarioRun(b *testing.B, name string, opts map[string]string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		inst := workload.MustBuild(name, opts)
		r := inst.Run(250_000, 1_500_000)
		b.ReportMetric(r.Values["throughput"], "sim_tput")
	}
}

func BenchmarkTrueshareRun(b *testing.B) { benchScenarioRun(b, "trueshare", nil) }
func BenchmarkAlienPingRun(b *testing.B) { benchScenarioRun(b, "alienping", nil) }

// --- NUMA topology: the same workload on a flat 1x16 machine vs the
// paper's 4x4 multi-socket layout, so the benchmarks track the socket-aware
// coherence hot path. The numaremote experiment bench tracks the fix.

func topo(sockets, cps int) map[string]string {
	return map[string]string{
		"sockets":          strconv.Itoa(sockets),
		"cores-per-socket": strconv.Itoa(cps),
	}
}

// The numaremote pair holds the consumer count fixed at 3 on both layouts
// (the 4x4 default is one consumer on each of the three non-producer chips;
// single-socket placement needs threads-per-socket 3 to match), so the
// benchmark isolates the NUMA cost rather than consumer parallelism.
func BenchmarkNumaRemoteRun1x16(b *testing.B) {
	opts := topo(1, 16)
	opts["threads-per-socket"] = "3"
	benchScenarioRun(b, "numaremote", opts)
}
func BenchmarkNumaRemoteRun4x4(b *testing.B) { benchScenarioRun(b, "numaremote", topo(4, 4)) }
func BenchmarkMemcachedRun1x16(b *testing.B) { benchScenarioRun(b, "memcached", topo(1, 16)) }
func BenchmarkMemcachedRun4x4(b *testing.B)  { benchScenarioRun(b, "memcached", topo(4, 4)) }

// --- windowed collection overhead: the same profiled memcached session
// monolithic (one window) vs split into 1 ms windows with a data-profile
// snapshot at every boundary, on both the flat and the paper topologies —
// the cost of the streaming pipeline's boundary merges and snapshots.

func benchWindowedSession(b *testing.B, opts map[string]string, windowCycles uint64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		inst := workload.MustBuild("memcached", opts)
		s, err := core.NewSession(inst, core.SessionConfig{
			Profiler:     core.DefaultConfig(),
			Views:        []string{"dataprofile"},
			Warmup:       250_000,
			Measure:      4_000_000,
			WindowCycles: windowCycles,
		})
		if err != nil {
			b.Fatal(err)
		}
		s.Run()
		b.ReportMetric(float64(len(s.Windows())), "windows")
	}
}

func BenchmarkWindowedMemcached1x16Mono(b *testing.B) {
	benchWindowedSession(b, topo(1, 16), 0)
}
func BenchmarkWindowedMemcached1x16Windowed(b *testing.B) {
	benchWindowedSession(b, topo(1, 16), 1_000_000)
}
func BenchmarkWindowedMemcached4x4Mono(b *testing.B) {
	benchWindowedSession(b, topo(4, 4), 0)
}
func BenchmarkWindowedMemcached4x4Windowed(b *testing.B) {
	benchWindowedSession(b, topo(4, 4), 1_000_000)
}

// BenchmarkNumaRemoteScenario baselines the numaremote experiment: the
// speedup metric is node-local allocation's gain over cross-chip pulls.
func BenchmarkNumaRemoteScenario(b *testing.B) { benchExperiment(b, "numaremote", "speedup") }

// --- dprofd: cached-profile request throughput ---

// BenchmarkServeCachedProfile measures the dprofd hot path: a POST /profile
// whose content address is already resident, i.e. full HTTP round trip plus
// LRU lookup but no simulation. This is the request rate the service
// sustains once a profile is warm — the serving-layer overhead.
func BenchmarkServeCachedProfile(b *testing.B) {
	s, err := serve.New(serve.Config{Workers: 1, Quick: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const body = `{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`
	post := func() int {
		resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		return resp.StatusCode
	}
	if code := post(); code != 200 { // warm the cache: one real simulation
		b.Fatalf("warmup status %d", code)
	}
	if n := s.Simulations(); n != 1 {
		b.Fatalf("warmup ran %d simulations", n)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if code := post(); code != 200 {
				b.Fatal("cached request failed")
			}
		}
	})
	b.StopTimer()
	if n := s.Simulations(); n != 1 {
		b.Fatalf("cached requests triggered %d extra simulations", n-1)
	}
}

// BenchmarkServeDiskWarmProfile measures the restart-warm path: the LRU is
// too small to retain both hot documents (capacity 1, two addresses
// alternating), so every request reads the document off the disk store —
// full HTTP round trip plus store checksum-verify, zero simulation. This
// is the floor a restarted replica serves at before its LRU re-warms.
func BenchmarkServeDiskWarmProfile(b *testing.B) {
	s, err := serve.New(serve.Config{Workers: 1, Quick: true, CacheEntries: 1, StoreDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	bodies := []string{
		`{"workload":"falseshare","views":["dataprofile"],"measure_ms":1,"quick":true}`,
		`{"workload":"trueshare","views":["dataprofile"],"measure_ms":1,"quick":true}`,
	}
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/profile", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		return resp.StatusCode
	}
	for _, body := range bodies { // warm the disk: one simulation each
		if code := post(body); code != 200 {
			b.Fatalf("warmup status %d", code)
		}
	}
	warmed := s.Simulations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(bodies[i%2]); code != 200 {
			b.Fatal("disk-warm request failed")
		}
	}
	b.StopTimer()
	if n := s.Simulations(); n != warmed {
		b.Fatalf("disk-warm requests triggered %d extra simulations", n-warmed)
	}
}

// --- ablation: directory vs snoop coherence lookup ---

func benchCoherence(b *testing.B, snoop bool) {
	cfg := cache.DefaultConfig()
	cfg.Snoop = snoop
	h := cache.New(cfg, 16)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 22))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%16, addrs[i%len(addrs)], i%3 == 0)
	}
}

// BenchmarkCoherenceDirectory measures the default O(1) directory MESI.
func BenchmarkCoherenceDirectory(b *testing.B) { benchCoherence(b, false) }

// BenchmarkCoherenceSnoop measures the scan-all-caches alternative; the
// results are identical (tested by TestQuickSnoopEquivalence) but the
// directory is what keeps 16-core simulations fast.
func BenchmarkCoherenceSnoop(b *testing.B) { benchCoherence(b, true) }

// --- ablation: alien caches on the remote-free path ---

func benchRemoteFree(b *testing.B, alienCap int) {
	scfg := sim.DefaultConfig()
	scfg.Cores = 2
	m := sim.New(scfg)
	mcfg := mem.DefaultConfig()
	mcfg.AlienCap = alienCap
	a := mem.New(mcfg, 2, lockstat.NewRegistry())
	typ := a.RegisterType("obj", 256, "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var addr uint64
		m.Schedule(0, m.MaxCoreTime(), func(c *sim.Ctx) { addr = a.Alloc(c, typ) })
		m.RunAll()
		m.Schedule(1, m.MaxCoreTime(), func(c *sim.Ctx) { a.Free(c, addr) })
		m.RunAll()
	}
}

// BenchmarkRemoteFreeBatched uses the default alien-cache batching.
func BenchmarkRemoteFreeBatched(b *testing.B) { benchRemoteFree(b, mem.DefaultConfig().AlienCap) }

// BenchmarkRemoteFreeUnbatched drains on every remote free (alien cap 1):
// the pool lock and slab bookkeeping are touched per object.
func BenchmarkRemoteFreeUnbatched(b *testing.B) { benchRemoteFree(b, 1) }

// --- ablation: path construction from histories (time-merge is the default;
// pairwise adds link evidence and quadratically more histories) ---

func makeHistories(typ *core.TypeDesc, n int, pairwise bool) []*core.History {
	var out []*core.History
	fns := []sym.PC{sym.Intern("rx"), sym.Intern("tx"), sym.Intern("free_path")}
	for i := 0; i < n; i++ {
		offsets := []uint32{uint32(i%4) * 8}
		if pairwise {
			offsets = []uint32{uint32(i%4) * 8, uint32((i+1)%4) * 8}
		}
		h := &core.History{
			Type: typ, Offsets: offsets, WatchLen: 8, Set: i / 4,
			AllocCore: 0, Lifetime: 1000,
		}
		for j, off := range offsets {
			h.Elems = append(h.Elems, core.HistElem{
				Offset: off, IP: fns[(i+j)%3], CPU: int32(j % 2), Time: uint64(10 + j*100),
			})
		}
		out = append(out, h)
	}
	return out
}

func benchPathTraces(b *testing.B, pairwise bool) {
	typ := &core.TypeDesc{Name: "bench", Size: 32, ObjSize: 32}
	hists := makeHistories(typ, 256, pairwise)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildPathTraces(typ, hists, nil)
	}
}

func BenchmarkPathTracesTimeMerge(b *testing.B) { benchPathTraces(b, false) }
func BenchmarkPathTracesPairwise(b *testing.B)  { benchPathTraces(b, true) }

// --- microbenchmarks of the substrate hot paths ---

func BenchmarkSimAccess(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	c := m.Ctx(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%4096)*64, 8)
	}
}

// BenchmarkSimAccessHooked measures the access path with a profiler-style
// hook attached — the configuration every experiment runs under. The hook
// dispatch must not allocate (the scratch AccessEvent is reused per core).
func BenchmarkSimAccessHooked(b *testing.B) {
	m := sim.New(sim.DefaultConfig())
	var seen uint64
	m.AddAccessHook(func(c *sim.Ctx, ev *sim.AccessEvent) { seen += uint64(ev.Latency) })
	c := m.Ctx(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%4096)*64, 8)
	}
	if seen == 0 {
		b.Fatal("hook never ran")
	}
}

func BenchmarkAllocFree(b *testing.B) {
	scfg := sim.DefaultConfig()
	scfg.Cores = 1
	m := sim.New(scfg)
	a := mem.New(mem.DefaultConfig(), 1, lockstat.NewRegistry())
	typ := a.RegisterType("micro", 256, "")
	c := m.Ctx(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(c, a.Alloc(c, typ))
	}
}

// BenchmarkMemcachedSteadyState measures the simulator's throughput in
// simulated requests per wall second for the headline workload.
func BenchmarkMemcachedSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := memcachedsim.DefaultConfig()
		cfg.Kern.LocalTxQueue = true
		bench := memcachedsim.New(cfg)
		st := bench.Run(500_000, 2_000_000)
		b.ReportMetric(float64(st.Completed), "requests")
	}
}
