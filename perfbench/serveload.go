package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Reference pass times: how long one deck pass takes on the reference host.
const (
	coldPassRef = 2800 * time.Millisecond
	warmPassRef = 200 * time.Millisecond
)

// references renders every deck key with the library before the first
// request, so each response can be checked as it arrives. The replay's
// sessions are released before anything is measured.
func references(deck []*entry) (map[*entry]*reference, error) {
	rep, err := replayDeck(deck, nil, clients)
	if err != nil {
		return nil, fmt.Errorf("library render: %w", err)
	}
	debug.FreeOSMemory()
	return rep.refs, nil
}

// coldPass runs one pass against a fresh server over an empty store and
// checks the simulation counters the deck fixes exactly. It returns the
// pass, the server's set-up time and its final counters.
func coldPass(o opts, deck []*entry, refs map[*entry]*reference, seq []request, tr *tracer, parent int64) (passResult, time.Duration, serverStats, error) {
	dir, err := tempStore(o.workdir)
	if err != nil {
		return passResult{}, 0, serverStats{}, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	h, err := startServer(dir, len(deck))
	if err != nil {
		return passResult{}, 0, serverStats{}, err
	}
	setup := time.Since(t0)
	pr := h.runPass(seq, refs, tr, parent)
	st, err := h.stats()
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return pr, setup, st, err
	}
	profiles, warm := deckShape(deck)
	if st.Simulations != int64(profiles) || st.Checkpoints.Captures != int64(warm) ||
		st.Checkpoints.Forks != int64(profiles) || st.Checkpoints.Evictions != 0 {
		pr.failed++
		pr.errs = append(pr.errs, fmt.Errorf("cold pass counters: %d simulations, %d captures, %d forks, %d checkpoint evictions; the deck fixes %d, %d, %d, 0",
			st.Simulations, st.Checkpoints.Captures, st.Checkpoints.Forks, st.Checkpoints.Evictions, profiles, warm, profiles))
	}
	return pr, setup, st, nil
}

// runServeCold is the serve-cold workload: pass after pass, each on a
// fresh server with an empty store, so every deck key simulates once per
// pass and every repeat is an LRU, disk-store or singleflight hit. A first,
// untimed pass lets the process fault in its code and heap, which a
// long-running dprofd pays once.
func runServeCold(o opts) (*result, error) {
	r := newResult()
	deck := buildDeck(o.seed)
	refs, err := references(deck)
	if err != nil {
		return nil, err
	}
	ranked := rankDeck(deck)
	hs := newHostSpeed()
	hs.probe(20)
	var setups, passes, peaks []float64
	var lat [][]float64
	var total time.Duration
	for pass := 0; pass == 0 || o.morePasses(len(passes), total, coldPassRef); pass++ {
		runtime.GC() // drop the previous pass's server before timing the next
		rss := startRSS()
		pr, setup, _, err := coldPass(o, deck, refs, buildPass(ranked, o.seed, pass), nil, 0)
		peak := rss.stopMB()
		if err != nil {
			return nil, err
		}
		r.attempted += pr.attempted
		r.fail(pr.failed, pr.errs...)
		if pass == 0 {
			continue
		}
		peaks = append(peaks, peak)
		setups = append(setups, setup.Seconds())
		passes = append(passes, pr.elapsed.Seconds())
		total += pr.elapsed
		lat = append(lat, pr.latMs)
		hs.probe(10)
	}
	if err := r.setEndToEnd(hs, setups, passes, peaks, lat, total); err != nil {
		return nil, err
	}
	return r, nil
}

// fillOrder is every deck key once, JSON, first windows first: the first
// half captures every warm address and the second half only forks, so the
// two clients rarely wait on the same checkpoint. The order is fixed, so
// set-up time does not depend on the seed.
func fillOrder(deck []*entry) []request {
	var out []request
	for _, m := range deckMeasureMs {
		for _, e := range deck {
			if !e.ingest() && e.measureMs == m {
				out = append(out, request{e: e})
			}
		}
	}
	for _, e := range deck {
		if e.ingest() {
			out = append(out, request{e: e})
		}
	}
	return out
}

// warmSetups is how many times serve-warm restarts its server on the filled
// store; setup_s is the median restart.
const warmSetups = 7

// fillStore simulates every deck document into a fresh store directory
// through one server, then shuts that server down.
func fillStore(o opts, deck []*entry, refs map[*entry]*reference) (string, passResult, error) {
	dir, err := tempStore(o.workdir)
	if err != nil {
		return "", passResult{}, err
	}
	h, err := startServer(dir, len(deck))
	if err != nil {
		os.RemoveAll(dir)
		return "", passResult{}, err
	}
	pr := h.runPass(fillOrder(deck), refs, nil, 0)
	if err := h.close(); err != nil {
		os.RemoveAll(dir)
		return "", pr, err
	}
	return dir, pr, nil
}

// restartServer starts a server on a filled store and reads every document
// once, so the LRU holds what fits and the disk store holds the rest. It is
// serve-warm's set-up: what a restarted dprofd does before it serves warm.
func restartServer(dir string, deck []*entry, refs map[*entry]*reference) (*harness, passResult, error) {
	h, err := startServer(dir, len(deck))
	if err != nil {
		return nil, passResult{}, err
	}
	return h, h.runPass(fillOrder(deck), refs, nil, 0), nil
}

// runServeWarm is the serve-warm workload: the deck replayed against a
// server whose every document is already resident, in the LRU or on disk.
// It must never simulate. The store is filled once, untimed: simulating
// and writing the deck is what serve-cold measures. Set-up is the restart
// and read-through, timed warmSetups times.
func runServeWarm(o opts) (*result, error) {
	r := newResult()
	deck := buildDeck(o.seed)
	refs, err := references(deck)
	if err != nil {
		return nil, err
	}
	ranked := rankDeck(deck)

	dir, pr, err := fillStore(o, deck, refs)
	if err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	defer os.RemoveAll(dir)
	r.attempted += pr.attempted
	r.fail(pr.failed, pr.errs...)
	debug.FreeOSMemory() // the simulating server's memory is not serving's
	hs := newHostSpeed()
	hs.probe(20)

	var h *harness
	var setups []float64
	for i := 0; i < warmSetups; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var pr passResult
		h, pr, err = restartServer(dir, deck, refs)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.attempted += pr.attempted
		r.fail(pr.failed, pr.errs...)
	}

	var passes, peaks []float64
	var lat [][]float64
	var total time.Duration
	for o.morePasses(len(passes), total, warmPassRef) {
		seq := buildPass(ranked, o.seed, len(passes))
		rss := startRSS()
		pr := h.runPass(seq, refs, nil, 0)
		peaks = append(peaks, rss.stopMB())
		passes = append(passes, pr.elapsed.Seconds())
		total += pr.elapsed
		lat = append(lat, pr.latMs)
		r.attempted += pr.attempted
		r.fail(pr.failed, pr.errs...)
		hs.probe(1)
	}
	st, err := h.stats()
	if cerr := h.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if st.Simulations != 0 {
		r.fail(1, fmt.Errorf("warm server ran %d simulations; it must run none", st.Simulations))
	}
	if err := r.setEndToEnd(hs, setups, passes, peaks, lat, total); err != nil {
		return nil, err
	}
	return r, nil
}
