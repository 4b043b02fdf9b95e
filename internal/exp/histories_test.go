package exp

import (
	"sync"
	"testing"

	"dprof/internal/core"
)

// TestHistoryRunsKeepNoRecords: every history-collection run attaches its
// profiler through attachHistoryProfiler, which keeps no per-object address
// records (no history experiment reads them), while the allocations still
// reach the set's usage counters.
func TestHistoryRunsKeepNoRecords(t *testing.T) {
	var (
		mu    sync.Mutex
		profs []*core.Profiler
	)
	historyAttached = func(p *core.Profiler) {
		mu.Lock()
		profs = append(profs, p)
		mu.Unlock()
	}
	defer func() { historyAttached = nil }()

	runs := []struct {
		name     string
		run      func()
		attaches int
		slow     bool // ~2 s each; table6.10 alone covers the helper under -short
	}{
		{"collectSingles", func() { collectSingles("memcached", []string{"size-1024"}, 1, true) }, 1, true},
		{"figure6.3", func() { runFigure63(RunCfg{Quick: true}) }, 1, true},
		{"table6.10", func() { runTable610(RunCfg{Quick: true}) }, len(paperCollectables), false},
	}
	for _, r := range runs {
		if r.slow && testing.Short() {
			continue
		}
		profs = nil
		r.run()
		if len(profs) != r.attaches {
			t.Fatalf("%s attached %d history profilers, want %d", r.name, len(profs), r.attaches)
		}
		for _, p := range profs {
			as := p.AddressSet()
			if as.Len() != 0 {
				t.Errorf("%s: profiler holds %d address records, want 0", r.name, as.Len())
			}
			var allocs uint64
			for _, u := range as.Usage() {
				allocs += u.Allocs
			}
			if allocs == 0 || as.Dropped() != allocs {
				t.Errorf("%s: usage counts %d allocations, %d dropped; want every one dropped", r.name, allocs, as.Dropped())
			}
		}
	}
}
