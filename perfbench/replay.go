package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"dprof/internal/app/workload"
	"dprof/internal/core"
	"dprof/internal/perfin"
	"dprof/internal/pprofout"
	"dprof/internal/sim"
	"dprof/internal/store"
)

// The library side of the serve workloads: every deck key rendered by
// calling the layers directly — workload.BuildInstance → core.NewSession →
// Session.Warmup → Checkpoint.Fork → core.BuildProfileDocument → encode —
// exactly as dprofd would for the same normalized request. Its bodies are
// the references the server's responses must equal byte for byte; in a
// traced run its spans and counters are the per-layer numbers.

// reference is the library render of one deck key.
type reference struct {
	json  []byte // the body dprofd serves, trailing newline included
	pprof []byte // the ?format=pprof body
}

// body is the reference for one format.
func (r *reference) body(pprof bool) []byte {
	if pprof {
		return r.pprof
	}
	return r.json
}

// simCounts are what the replay simulated. Every field but CkptBytes (an
// estimate) is an exact count: a host-speed change must leave it identical.
type simCounts struct {
	Retired    uint64
	Cycles     uint64
	Accesses   uint64
	L1Hits     uint64
	Foreign    uint64
	DRAMFills  uint64
	InvalsSent uint64
	CkptBytes  uint64
}

func (c *simCounts) add(o simCounts) {
	c.Retired += o.Retired
	c.Cycles += o.Cycles
	c.Accesses += o.Accesses
	c.L1Hits += o.L1Hits
	c.Foreign += o.Foreign
	c.DRAMFills += o.DRAMFills
	c.InvalsSent += o.InvalsSent
	c.CkptBytes += o.CkptBytes
}

// measuredCounts reads a machine's counters after a measured phase,
// relative to its state at the warmup boundary. Cache statistics are reset
// at the boundary, so Totals already covers the measured phase alone.
func measuredCounts(m *sim.Machine, retiredAtWarm, nowAtWarm uint64) simCounts {
	t := m.Hier.Totals()
	return simCounts{
		Retired:    retired(m) - retiredAtWarm,
		Cycles:     m.Now() - nowAtWarm,
		Accesses:   t.Accesses,
		L1Hits:     t.L1Hits,
		Foreign:    t.ForeignHits + t.ForeignRemoteHits,
		DRAMFills:  t.DRAMFills + t.DRAMRemoteFills,
		InvalsSent: t.InvalsSent,
	}
}

func retired(m *sim.Machine) uint64 {
	var n uint64
	for i := 0; i < m.NumCores(); i++ {
		n += m.Core(i).Retired()
	}
	return n
}

// replayResult is the library render of a whole deck.
type replayResult struct {
	refs   map[*entry]*reference
	counts simCounts
}

// replayDeck renders every deck key on `workers` goroutines. Profile keys
// that share a warm address share one checkpoint, as they do in dprofd. With
// a tracer, each group also forks its first window a second time and
// requires identical counters and bytes — the exact-repeat check.
func replayDeck(deck []*entry, tr *tracer, workers int) (*replayResult, error) {
	var groups [][]*entry
	byWarm := map[string]int{}
	for _, e := range deck {
		if e.ingest() {
			groups = append(groups, []*entry{e})
			continue
		}
		i, ok := byWarm[e.warmKey()]
		if !ok {
			i = len(groups)
			byWarm[e.warmKey()] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], e)
	}

	res := &replayResult{refs: make(map[*entry]*reference, len(deck))}
	var (
		mu   sync.Mutex
		errs []error
		next = make(chan []*entry)
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for g := range next {
				out := replayResult{refs: map[*entry]*reference{}}
				var err error
				if g[0].ingest() {
					err = renderIngest(g[0], tr, &out)
				} else {
					err = renderGroup(g, tr, &out)
				}
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				}
				maps.Copy(res.refs, out.refs)
				res.counts.add(out.counts)
				mu.Unlock()
			}
		}()
	}
	for _, g := range groups {
		next <- g
	}
	close(next)
	wg.Wait()
	if len(errs) > 0 {
		return res, errs[0]
	}
	return res, nil
}

// resolveViews mirrors dprofd's request normalization for the deck's
// profile keys: the view set in canonical order, the server's default view
// set when none is named, and the workload's natural target when a view
// needs one.
func resolveViews(w workload.Workload, views []string) (vs []string, target string) {
	if views == nil {
		vs = slices.Clone(core.KnownViews)
		if w.DefaultTarget() == "" {
			vs = []string{"dataprofile", "workingset", "missclass"}
		}
	} else {
		for _, v := range core.KnownViews {
			if slices.Contains(views, v) {
				vs = append(vs, v)
			}
		}
	}
	if slices.Contains(vs, "dataflow") || slices.Contains(vs, "pathtrace") {
		target = w.DefaultTarget()
	}
	return vs, target
}

// renderGroup warms one session and forks every measured window of the
// group from it.
func renderGroup(keys []*entry, tr *tracer, out *replayResult) error {
	first := keys[0]
	req := tr.newReq()
	root := tr.start("replay.group", 0, req)
	defer root.end()

	w, err := workload.Lookup(first.workload)
	if err != nil {
		return err
	}
	opts, err := workload.CanonicalOptions(w, map[string]string{"seed": fmt.Sprint(first.seed)})
	if err != nil {
		return err
	}
	views, target := resolveViews(w, first.views)

	sp := tr.start("workload.build", root.id, req)
	cfg, err := workload.NewConfig(w, opts)
	if err != nil {
		return err
	}
	inst, err := workload.BuildInstance(w, cfg.WithQuick(true))
	sp.end()
	if err != nil {
		return fmt.Errorf("build %s: %w", first, err)
	}

	sp = tr.start("core.new_session", root.id, req)
	sess, err := core.NewSession(inst, core.SessionConfig{
		Profiler: core.DefaultConfig(),
		Views:    views,
		TypeName: target,
		Sets:     2,
		Warmup:   w.Windows(true).Warmup,
		Measure:  w.Windows(true).Measure,
	})
	sp.end()
	if err != nil {
		return fmt.Errorf("session %s: %w", first, err)
	}

	sp = tr.start("sim.warmup", root.id, req)
	cp, err := sess.Warmup()
	sp.end()
	if err != nil {
		return fmt.Errorf("warmup %s: %w", first, err)
	}
	m := inst.Machine()
	retW, nowW := retired(m), m.Now()
	out.counts.Retired += retW
	out.counts.Cycles += nowW
	out.counts.CkptBytes += cp.Bytes()

	var firstCounts simCounts
	for i, e := range keys {
		sp := tr.start("sim.measure", root.id, req)
		cp.Fork(e.measureMs * 1_000_000)
		sp.end()
		c := measuredCounts(m, retW, nowW)
		out.counts.add(c)
		ref, err := renderDocument(sess, views, w.Name(), opts, tr, root.id, req)
		if err != nil {
			return fmt.Errorf("render %s: %w", e, err)
		}
		out.refs[e] = ref
		if i == 0 {
			firstCounts = c
		}
	}

	if tr != nil {
		// Exact-repeat check: restoring the checkpoint and re-running the
		// first window must reproduce its counters and its bytes.
		sp := tr.start("check.refork", root.id, req)
		cp.Fork(first.measureMs * 1_000_000)
		again := measuredCounts(m, retW, nowW)
		ref, err := renderDocument(sess, views, w.Name(), opts, nil, 0, 0)
		sp.end()
		if err != nil {
			return fmt.Errorf("re-render %s: %w", first, err)
		}
		if again != firstCounts {
			return fmt.Errorf("%s: re-forked counters differ: %+v vs %+v", first, again, firstCounts)
		}
		if !bytes.Equal(ref.json, out.refs[first].json) {
			return fmt.Errorf("%s: re-forked document differs", first)
		}
	}
	return nil
}

// renderDocument renders a finished session one view at a time — timing
// each view's export — and assembles the canonical document dprofd serves,
// plus its pprof conversion.
func renderDocument(sess *core.Session, views []string, name string, opts map[string]string, tr *tracer, parent, req int64) (*reference, error) {
	var doc *core.ProfileDocument
	for _, v := range views {
		sp := tr.start("core.render."+v, parent, req)
		d, err := core.BuildProfileDocument(sess, []string{v}, name, opts, true)
		sp.end()
		if err != nil {
			return nil, err
		}
		if doc == nil {
			doc = d
		} else {
			doc.Views[v] = d.Views[v]
		}
	}
	doc.Stamp(core.SourceSim, time.Time{})
	return encodeDocument(doc, tr, parent, req)
}

// encodeDocument serializes a stamped document the way dprofd does, then
// round-trips it through the pprof conversion a ?format=pprof hit runs.
func encodeDocument(doc *core.ProfileDocument, tr *tracer, parent, req int64) (*reference, error) {
	sp := tr.start("serve.encode", parent, req)
	body, err := json.Marshal(doc)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("core.parse_doc", parent, req)
	parsed, err := core.ParseDocument(body)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("pprofout.encode", parent, req)
	gz, err := pprofout.EncodeDocument(parsed, pprofout.Meta{Comments: []string{"dprofd: " + parsed.Workload}})
	sp.end()
	if err != nil {
		return nil, err
	}
	return &reference{json: append(body, '\n'), pprof: gz}, nil
}

// renderIngest renders an ingest key: parse the capture, export its views.
func renderIngest(e *entry, tr *tracer, out *replayResult) error {
	req := tr.newReq()
	root := tr.start("replay.ingest", 0, req)
	defer root.end()
	sp := tr.start("perfin.parse", root.id, req)
	p, err := perfin.Parse(e.capture)
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", e, err)
	}
	views := slices.Clone(core.KnownViews)
	if e.ingestV != "" {
		views = strings.Split(e.ingestV, ",")
	}
	sp = tr.start("core.render.ingest", root.id, req)
	doc, err := core.BuildSourceDocument(p.Source, views, "perf:ingest", map[string]string{}, p.DefaultTarget())
	sp.end()
	if err != nil {
		return fmt.Errorf("%s: %w", e, err)
	}
	doc.Summary = fmt.Sprintf("ingested perf.data: %d samples over %d mappings", p.Stats.SamplesKept, p.Stats.Mappings)
	doc.Stamp(core.SourcePerf, time.Time{})
	ref, err := encodeDocument(doc, tr, root.id, req)
	if err != nil {
		return fmt.Errorf("%s: %w", e, err)
	}
	out.refs[e] = ref
	return nil
}

// probeStore writes every reference body into a fresh store and reads each
// back, timing both and checking the bytes survive.
func probeStore(workdir string, refs map[*entry]*reference, tr *tracer) error {
	dir, err := tempStore(workdir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	req := tr.newReq()
	root := tr.start("store.probe", 0, req)
	defer root.end()
	keys := make([]*entry, 0, len(refs))
	for e := range refs {
		keys = append(keys, e)
	}
	slices.SortFunc(keys, func(a, b *entry) int { return a.id - b.id })
	for _, e := range keys {
		sp := tr.start("store.put", root.id, req)
		err := st.Put(fmt.Sprintf("bench/%d", e.id), refs[e].json)
		sp.end()
		if err != nil {
			return err
		}
	}
	for _, e := range keys {
		sp := tr.start("store.get", root.id, req)
		body, ok := st.Get(fmt.Sprintf("bench/%d", e.id))
		sp.end()
		if !ok || !bytes.Equal(body, refs[e].json) {
			return fmt.Errorf("store round trip of %s lost its bytes", e)
		}
	}
	return nil
}

// l1HitRatio is the share of measured accesses that hit in L1.
func (c simCounts) l1HitRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.L1Hits) / float64(c.Accesses)
}
