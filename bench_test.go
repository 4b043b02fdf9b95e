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
		r := core.RunBare(inst, 250_000, 1_500_000)
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
// whose document is already resident, i.e. full HTTP round trip plus LRU
// lookup but no simulation. Every timed request repeats the warmup's body
// byte for byte, so it is answered by its spelling: no decode, no
// normalization and no content address. This is the request rate the
// service sustains once a profile is warm — the serving-layer overhead.
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
func BenchmarkServeDiskWarmProfile(b *testing.B) { benchServeDiskWarm(b, "/profile") }

// BenchmarkServeDiskWarmPprof is the same churn with ?format=pprof: each
// request re-admits a document evicted by the one before it, so its pprof
// form survives only in the evicted entry's ghost. Taken back, it costs no
// conversion; a server that keeps the form only while the body is resident
// converts on every request.
func BenchmarkServeDiskWarmPprof(b *testing.B) { benchServeDiskWarm(b, "/profile?format=pprof") }

func benchServeDiskWarm(b *testing.B, uri string) {
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
		resp, err := http.Post(ts.URL+uri, "application/json", strings.NewReader(body))
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

// --- directory coherence lookup ---

// BenchmarkCoherenceDirectory measures the directory MESI hierarchy under a
// 16-core random stream over 4 MB: the O(1) holder lookup is what keeps
// 16-core simulations fast.
func BenchmarkCoherenceDirectory(b *testing.B) {
	h := cache.New(cache.DefaultConfig(), 16)
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

// BenchmarkHierarchySlowPath times the slow access path on a 16-core
// default hierarchy, one access per op, in three regimes that weigh the
// private-first lookup differently:
//
//   - l2-hits: each core sweeps 256 KB of its own, larger than L1 and within
//     L2, so every access is an L1 miss that hits L2 and probes no directory;
//   - upgrades: cores 0 and 1 take turns reading and then writing a shared
//     line, so every read is a foreign transfer and every write a Shared
//     upgrade, each with one directory probe;
//   - misses: each core sweeps 1 MB of its own, larger than L2, so every
//     access scans both private levels, misses, and probes the directory.
//
// Each reports ns/access and dir-probes/access (Hierarchy.DirProbes).
func BenchmarkHierarchySlowPath(b *testing.B) {
	type access struct {
		core  int
		addr  uint64
		write bool
	}
	const cores, line = 16, 64
	sweep := func(bytes uint64) []access {
		var ops []access
		for i := uint64(0); i < bytes/line; i++ {
			for c := 0; c < cores; c++ {
				ops = append(ops, access{c, uint64(c)<<32 | i*line, i%4 == 0})
			}
		}
		return ops
	}
	var upgrades []access
	for i := uint64(0); i < 64; i++ {
		for c := 0; c < 2; c++ {
			upgrades = append(upgrades, access{c, i * line, false}, access{c, i * line, true})
		}
	}
	for _, bc := range []struct {
		name string
		ops  []access
	}{
		{"l2-hits", sweep(256 << 10)},
		{"upgrades", upgrades},
		{"misses", sweep(1 << 20)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := cache.New(cache.DefaultConfig(), cores)
			for _, x := range bc.ops {
				h.Access(x.core, x.addr, x.write)
			}
			h.ResetStats()
			b.ReportAllocs()
			n := 0
			for b.Loop() {
				x := bc.ops[n%len(bc.ops)]
				h.Access(x.core, x.addr, x.write)
				n++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
			b.ReportMetric(float64(h.DirProbes())/float64(n), "dir-probes/access")
		})
	}
}

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

// --- the §4.2 replay views: the working-set render on every cold
// all-views request ---

// replayAddressSet builds a synthetic address set of ~50k objects, 64–2048
// bytes, in slab-like arenas whose freed slots are reused, with allocations
// and frees interleaved, plus two path traces per type whose steps repeat
// and overlap the way real traces do.
func replayAddressSet() (*core.StaticProfile, map[*core.TypeDesc][]*core.PathTrace) {
	rng := rand.New(rand.NewSource(1))
	ts := core.NewTypeSet()
	as := core.NewAddressSet()
	traces := make(map[*core.TypeDesc][]*core.PathTrace)
	type arena struct {
		t    *core.TypeDesc
		next uint64
		free []uint64
	}
	var arenas []*arena
	for i, size := range []uint64{64, 128, 192, 256, 512, 1024, 2048} {
		t := ts.Intern("obj-"+strconv.Itoa(int(size)), "", size, size)
		arenas = append(arenas, &arena{t: t, next: uint64(i+1) << 32})
		for p := 0; p < 2; p++ {
			tr := &core.PathTrace{Type: t, Count: 1, Frequency: 0.5}
			for st := 0; st < 8; st++ {
				lo := uint32(rng.Intn(int(size)))
				tr.Steps = append(tr.Steps, core.PathStep{PC: sym.Intern("step"), OffLo: lo, OffHi: lo + 8 + uint32(rng.Intn(64))})
			}
			traces[t] = append(traces[t], tr)
		}
	}
	type liveObj struct {
		a    *arena
		addr uint64
	}
	var live []liveObj
	now := uint64(1)
	for allocs := 0; allocs < 50_000; now += uint64(1 + rng.Intn(50)) {
		if len(live) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(live))
			o := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			as.RecordFree(now, o.a.t, o.addr)
			o.a.free = append(o.a.free, o.addr)
			continue
		}
		a := arenas[rng.Intn(len(arenas))]
		var addr uint64
		if n := len(a.free); n > 0 && rng.Intn(4) != 0 {
			addr, a.free = a.free[n-1], a.free[:n-1]
		} else {
			addr = a.next
			a.next += a.t.ObjSize
		}
		as.RecordAlloc(now, 0, a.t, addr)
		live = append(live, liveObj{a, addr})
		allocs++
	}
	return core.NewStaticProfile(ts, nil, as, nil, cache.DefaultConfig(), cache.SingleSocket(16)), traces
}

// BenchmarkCacheResidency times the §4.2 LRU replay over ~50k objects.
func BenchmarkCacheResidency(b *testing.B) {
	src, _ := replayAddressSet()
	b.ReportAllocs()
	for b.Loop() {
		core.CacheResidencyOf(src, core.DefaultReplayObjects)
	}
}

// BenchmarkBuildWorkingSet times the §4.2 associativity-set histogram over
// the same address set, offsets taken from the path traces.
func BenchmarkBuildWorkingSet(b *testing.B) {
	src, traces := replayAddressSet()
	geo := core.GeometryFromCache(src.CacheConfig())
	b.ReportAllocs()
	for b.Loop() {
		core.BuildWorkingSet(src.AddressSet(), traces, geo, core.DefaultReplayObjects)
	}
}

// BenchmarkAddressSetRecord records 600,000 allocations through the
// profiler's address-set hooks under the default record cap (500,000), each
// freed 1,024 allocations later, as a profiled session's churn does. Few
// objects are live at once, so the per-record storage dominates B/op.
func BenchmarkAddressSetRecord(b *testing.B) {
	const allocs, lag = 600_000, 1024
	types := []*core.TypeDesc{{Name: "a", ObjSize: 64}, {Name: "b", ObjSize: 256}, {Name: "c", ObjSize: 1024}}
	addr := func(i uint64) uint64 { return 1<<32 + i*1024 }
	b.ReportAllocs()
	for b.Loop() {
		as := core.NewAddressSet()
		as.MaxObjects = core.DefaultConfig().MaxAddrRecords
		for i := uint64(1); i <= allocs+lag; i++ {
			if i <= allocs {
				as.RecordAlloc(i, int32(i%16), types[i%3], addr(i))
			}
			if i > lag {
				as.RecordFree(i, types[(i-lag)%3], addr(i-lag))
			}
		}
	}
}

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

// BenchmarkCheckpointRestore times one fork's cache rewind: restoring a
// warmup checkpoint of a lightly filled 16-core hierarchy after a measured
// phase has run on past it. "in-place" clears and rewrites the live arrays
// and must not allocate. "released" parks the hierarchy first, as dprofd
// does between forks: Release hands its arrays to the recycler and Restore
// takes them back, so it must not allocate a bank or table either.
func BenchmarkCheckpointRestore(b *testing.B) {
	warmed := func() (*cache.Hierarchy, *cache.Checkpoint) {
		h := cache.New(cache.DefaultConfig(), 16)
		rng := rand.New(rand.NewSource(1))
		access := func(n int) {
			for i := 0; i < n; i++ {
				h.Access(rng.Intn(16), uint64(rng.Intn(1<<22)), rng.Intn(3) == 0)
			}
		}
		access(50_000)
		cp := h.Checkpoint()
		access(50_000)
		// Bring every table back to its checkpointed size, so the loop
		// measures the steady state.
		h.Restore(cp)
		return h, cp
	}
	b.Run("in-place", func(b *testing.B) {
		h, cp := warmed()
		b.ReportAllocs()
		for b.Loop() {
			h.Restore(cp)
		}
	})
	b.Run("released", func(b *testing.B) {
		h, cp := warmed()
		b.ReportAllocs()
		for b.Loop() {
			h.Release()
			h.Restore(cp)
		}
	})
}

// BenchmarkParkedFork is one fork of a pooled checkpoint, as dprofd serves
// it: park the warmed memcached session (Checkpoint.Park hands the
// hierarchy's, the profiler's and the allocator's rewritable arrays to
// recyclers), then fork a measured phase, which restores into arrays taken
// back from them. The measured phase's own allocations (packets, samples,
// records) are most of B/op; an array the restore makes afresh instead of
// recycling adds its whole size. CI runs it once and gates B/op.
func BenchmarkParkedFork(b *testing.B) {
	w, err := workload.Lookup("memcached")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Build(workload.Defaults(w).WithQuick(true))
	if err != nil {
		b.Fatal(err)
	}
	win := w.Windows(true)
	s, err := core.NewSession(inst, core.SessionConfig{
		Profiler: core.DefaultConfig(),
		Views:    []string{"dataprofile", "missclass"},
		Warmup:   win.Warmup,
		Measure:  win.Measure,
	})
	if err != nil {
		b.Fatal(err)
	}
	cp, err := s.Warmup()
	if err != nil {
		b.Fatal(err)
	}
	cp.Fork(0)
	b.ReportAllocs()
	for b.Loop() {
		cp.Park()
		cp.Fork(0)
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
		res := core.RunBare(memcachedsim.New(cfg), 500_000, 2_000_000)
		b.ReportMetric(res.Values["completed"], "requests")
	}
}
