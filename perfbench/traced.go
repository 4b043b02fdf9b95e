package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"time"
)

// Per-layer viewing: a traced run replays the seed's deck through the
// library layers, serves one cold and one warm traced pass, and runs the
// experiment suite warm and cold, recording a span around every call the
// benchmark makes. The per-layer metrics are computed from those spans and
// from counters the layers expose; the span file is written once, at the
// end. Every traced run reports every per-layer metric, whatever its
// -workload; the workload only picks which end-to-end path is timed a
// second time untraced to price the tracing (trace.overhead_ratio).

// warmTracedPasses is how many passes the warm traced phase sends, each
// way; one warm pass is a fraction of a second.
const warmTracedPasses = 10

func runTraced(o opts) (*result, error) {
	r := newResult()
	tr := newTracer()
	deck := buildDeck(o.seed)
	ranked := rankDeck(deck)
	seq := buildPass(ranked, o.seed, 0)

	// Library layers: simulator, cache, rendering, encoding, ingestion, store.
	rep, err := replayDeck(deck, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("library replay: %w", err)
	}
	if err := probeStore(o.workdir, rep.refs, tr); err != nil {
		r.fail(1, err)
	}
	c := rep.counts
	warmMs, warms := tr.meanMs("sim.warmup")
	measureMs, measures := tr.meanMs("sim.measure")
	simNs := (warmMs*float64(warms) + measureMs*float64(measures)) * 1e6
	docBytes := 0
	for _, ref := range rep.refs {
		docBytes += len(ref.json)
	}
	r.set("sim.retired", float64(c.Retired), "count")
	r.set("sim.cycles", float64(c.Cycles), "cycles")
	r.set("sim.ns_per_access", simNs/float64(c.Retired), "ns")
	r.set("cache.accesses", float64(c.Accesses), "count")
	r.set("cache.l1_hit_ratio", c.l1HitRatio(), "ratio")
	r.set("cache.foreign_hits", float64(c.Foreign), "count")
	r.set("cache.dram_fills", float64(c.DRAMFills), "count")
	r.set("cache.invals_sent", float64(c.InvalsSent), "count")
	r.set("core.checkpoint_bytes", float64(c.CkptBytes), "bytes")
	r.set("serve.doc_kb", float64(docBytes)/float64(len(rep.refs))/1024, "KiB")
	spanMetrics := map[string]string{
		"workload.build_ms":          "workload.build",
		"sim.warmup_ms":              "sim.warmup",
		"sim.measure_ms":             "sim.measure",
		"serve.encode_ms":            "serve.encode",
		"core.parse_doc_ms":          "core.parse_doc",
		"pprofout.encode_ms":         "pprofout.encode",
		"store.put_ms":               "store.put",
		"store.get_ms":               "store.get",
		"perfin.parse_ms":            "perfin.parse",
		"serve.http_floor_ms":        "serve.http_floor",
		"core.render_ms.dataprofile": "core.render.dataprofile",
		"core.render_ms.workingset":  "core.render.workingset",
		"core.render_ms.missclass":   "core.render.missclass",
		"core.render_ms.dataflow":    "core.render.dataflow",
		"core.render_ms.pathtrace":   "core.render.pathtrace",
		"core.render_ms.ingest":      "core.render.ingest",
	}

	// Cold serving. For serve-cold, an untraced pass first prices the trace.
	var untraced time.Duration
	if o.workload == "serve-cold" {
		pr, _, _, err := coldPass(o, deck, rep.refs, seq, nil, 0)
		if err != nil {
			return nil, err
		}
		untraced = pr.elapsed
		r.attempted += pr.attempted
		r.fail(pr.failed, pr.errs...)
	}
	root := tr.start("serve.pass.cold", 0, tr.newReq())
	cold, _, st, err := coldPass(o, deck, rep.refs, seq, tr, root.id)
	root.end()
	if err != nil {
		return nil, err
	}
	r.attempted += cold.attempted
	r.fail(cold.failed, cold.errs...)
	if o.workload == "serve-cold" {
		r.set("trace.overhead_ratio", cold.elapsed.Seconds()/untraced.Seconds(), "ratio")
	}
	disp := func(names ...string) int {
		n := 0
		for _, name := range names {
			n += len(cold.byClass[name]) + len(cold.byClass["pprof_"+name])
		}
		return n
	}
	r.set("serve.simulations", float64(st.Simulations), "count")
	r.set("serve.hits", float64(st.Cache.Hits), "count")
	r.set("serve.misses", float64(st.Cache.Misses), "count")
	r.set("serve.dedups", float64(st.Singleflight.Deduplicated), "count")
	r.set("serve.ckpt_captures", float64(st.Checkpoints.Captures), "count")
	r.set("serve.ckpt_forks", float64(st.Checkpoints.Forks), "count")
	r.set("serve.lru_evictions", float64(st.Cache.Evictions), "count")
	r.set("store.hits", float64(st.Store.Hits), "count")
	r.set("store.puts", float64(st.Store.Puts), "count")
	r.set("serve.hit_ratio", float64(disp("hit", "disk"))/float64(len(cold.latMs)), "ratio")
	r.set("serve.fork_ratio", float64(st.Checkpoints.Forks)/float64(st.Simulations), "ratio")
	r.setLatency("serve.lat_p50_ms.miss", cold.byClass["miss"])
	r.setLatency("serve.lat_p50_ms.dedup", cold.byClass["dedup"])

	// Warm serving: the HTTP floor, then traced passes over resident
	// documents, which must never simulate.
	wdir, fill, err := fillStore(o, deck, rep.refs)
	if err != nil {
		return nil, fmt.Errorf("warm fill: %w", err)
	}
	defer os.RemoveAll(wdir)
	h, read, err := restartServer(wdir, deck, rep.refs)
	if err != nil {
		return nil, fmt.Errorf("warm set-up: %w", err)
	}
	for _, pr := range []passResult{fill, read} {
		r.attempted += pr.attempted
		r.fail(pr.failed, pr.errs...)
	}
	if err := h.httpFloor(500, tr); err != nil {
		r.fail(1, err)
	}
	// For serve-warm, untraced passes alternate with the traced ones, so a
	// drift in host speed lands on both sides of the overhead ratio alike.
	byClass := map[string][]float64{}
	var plainS, tracedS []float64
	for i := 0; i < warmTracedPasses; i++ {
		seq := buildPass(ranked, o.seed, i)
		if o.workload == "serve-warm" {
			pr := h.runPass(seq, rep.refs, nil, 0)
			plainS = append(plainS, pr.elapsed.Seconds())
			r.attempted += pr.attempted
			r.fail(pr.failed, pr.errs...)
		}
		root := tr.start("serve.pass.warm", 0, tr.newReq())
		pr := h.runPass(seq, rep.refs, tr, root.id)
		root.end()
		tracedS = append(tracedS, pr.elapsed.Seconds())
		r.attempted += pr.attempted
		r.fail(pr.failed, pr.errs...)
		for k, v := range pr.byClass {
			byClass[k] = append(byClass[k], v...)
		}
	}
	if o.workload == "serve-warm" {
		r.set("trace.overhead_ratio", median(tracedS)/median(plainS), "ratio")
	}
	wst, err := h.stats()
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if wst.Simulations != 0 {
		r.fail(1, fmt.Errorf("warm server ran %d simulations; it must run none", wst.Simulations))
	}
	r.setLatency("serve.lat_p50_ms.hit", byClass["hit"])
	r.setLatency("serve.lat_p50_ms.disk", byClass["disk"])
	r.setLatency("serve.lat_p50_ms.pprof_hit", byClass["pprof_hit"])

	// Engine: the suite warm and cold, each experiment a span.
	golden, err := engineSetup()
	if err != nil {
		return nil, fmt.Errorf("engine set-up: %w", err)
	}
	var plain suiteRun
	if o.workload == "engine-suite" {
		plain = runSuite(suiteList, true, golden, nil)
		r.attempted += len(suiteList)
		r.fail(plain.failed, plain.errs...)
	}
	warm := runSuite(suiteList, true, golden, tr)
	coldSuite := runSuite(suiteList, false, golden, tr)
	for _, run := range []suiteRun{warm, coldSuite} {
		r.attempted += len(suiteList)
		r.fail(run.failed, run.errs...)
	}
	for _, n := range suiteList {
		r.set("exp.elapsed_s."+n, warm.perExp[n].Seconds(), "s")
	}
	r.set("exp.warmstart_speedup", coldSuite.elapsed.Seconds()/warm.elapsed.Seconds(), "ratio")
	if o.workload == "engine-suite" {
		r.set("trace.overhead_ratio", warm.elapsed.Seconds()/plain.elapsed.Seconds(), "ratio")
	}

	for name, span := range spanMetrics {
		v, n := tr.meanMs(span)
		if n == 0 {
			r.fail(1, fmt.Errorf("no %s spans recorded", span))
			continue
		}
		r.set(name, v, "ms")
	}

	// Checkpoint bytes are an estimate that varies by a few hundred bytes
	// from run to run, so they are reported but not held to exactness.
	exact := map[string]float64{
		"serve.simulations":   float64(st.Simulations),
		"serve.ckpt_captures": float64(st.Checkpoints.Captures),
		"cache.l1_hits":       float64(c.L1Hits),
	}
	for _, k := range []string{"sim.retired", "sim.cycles", "cache.accesses", "cache.foreign_hits", "cache.dram_fills", "cache.invals_sent"} {
		exact[k] = r.metrics[k].Value
	}
	if err := checkExact(o, exact); err != nil {
		r.fail(1, err)
	}

	if err := os.MkdirAll(filepath.Join(o.workdir, "traces"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return r, nil
}

// setLatency records the median of a latency class; a class the run never
// observed is a failure, because its metric would be missing.
func (r *result) setLatency(name string, lat []float64) {
	if len(lat) == 0 {
		r.fail(1, fmt.Errorf("%s: no requests in this class", name))
		return
	}
	r.set(name, median(lat), "ms")
}

// checkExact compares the run's simulated counts with the counts an
// earlier traced run of the same binary recorded for the same seed. They
// must be identical: a deterministic simulator repeats them exactly, so a
// difference is a bug, not noise.
func checkExact(o opts, counts map[string]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	sum := sha256.New()
	_, err = io.Copy(sum, f)
	f.Close()
	if err != nil {
		return err
	}
	dir := filepath.Join(o.workdir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", hex.EncodeToString(sum.Sum(nil))[:16], o.seed))
	if raw, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !maps.Equal(prev, counts) {
			return fmt.Errorf("simulated counts differ from an earlier run of this binary with seed %d: %v, then %v", o.seed, prev, counts)
		}
		return nil
	}
	raw, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
