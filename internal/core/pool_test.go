package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dprof/internal/core"
	"dprof/internal/lockstat"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// tickWorkload is a minimal WarmRunnable: one core reading a small ring of
// lines every 100 cycles, forever. All of its state lives in the machine, so
// a checkpoint restore rewinds it completely.
type tickWorkload struct {
	m     *sim.Machine
	alloc *mem.Allocator
	locks *lockstat.Registry
}

func newTickWorkload() *tickWorkload {
	scfg := sim.DefaultConfig()
	scfg.Cores = 1
	m := sim.New(scfg)
	locks := lockstat.NewRegistry()
	w := &tickWorkload{m: m, alloc: mem.New(mem.DefaultConfig(), 1, locks), locks: locks}
	var tick func(c *sim.Ctx)
	tick = func(c *sim.Ctx) {
		c.Read(0x10000+(c.Now()/100%64)*64, 8)
		c.Spawn(0, 100, tick)
	}
	m.Schedule(0, 0, tick)
	return w
}

func (w *tickWorkload) Machine() *sim.Machine     { return w.m }
func (w *tickWorkload) Alloc() *mem.Allocator     { return w.alloc }
func (w *tickWorkload) Locks() *lockstat.Registry { return w.locks }
func (w *tickWorkload) Prime(uint64)              {}

func (w *tickWorkload) RunWarmup(warmup uint64) { w.m.Run(warmup) }

func (w *tickWorkload) RunMeasured(warmup, measure uint64) core.RunResult {
	w.m.Run(warmup + measure)
	return core.RunResult{Values: map[string]float64{
		"now":   float64(w.m.Now()),
		"clock": float64(w.m.Core(0).Now()),
	}}
}

func (w *tickWorkload) Run(warmup, measure uint64) core.RunResult {
	w.RunWarmup(warmup)
	return w.RunMeasured(warmup, measure)
}

const tickWarmup = 5_000

// captureTick is a pool capture function over a fresh tickWorkload; calls
// counts its invocations.
func captureTick(calls *int) func() (*core.Checkpoint, error) {
	return func() (*core.Checkpoint, error) {
		*calls++
		return core.CaptureWarmup(newTickWorkload(), tickWarmup)
	}
}

// coldTick is the reference result a fork of measure must reproduce.
func coldTick(measure uint64) core.RunResult {
	return newTickWorkload().Run(tickWarmup, measure)
}

// forkTick forks measure from key's checkpoint and checks it against a cold
// run.
func forkTick(t *testing.T, p *core.CheckpointPool, key string, measure uint64, calls *int) {
	t.Helper()
	var got core.RunResult
	if err := p.Do(key, captureTick(calls), func(cp *core.Checkpoint) error {
		got = cp.Fork(measure)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := coldTick(measure); fmt.Sprint(got.Values) != fmt.Sprint(want.Values) {
		t.Errorf("%s fork of %d = %v, want the cold run's %v", key, measure, got.Values, want.Values)
	}
}

func tickBytes(t *testing.T) int64 {
	t.Helper()
	cp, err := core.CaptureWarmup(newTickWorkload(), tickWarmup)
	if err != nil {
		t.Fatal(err)
	}
	return int64(cp.Bytes())
}

// TestCheckpointPoolLRUOrder: under a budget of two checkpoints, a third
// capture evicts the least recently used entry, and a fork counts as a use.
func TestCheckpointPoolLRUOrder(t *testing.T) {
	p := core.NewCheckpointPool(2 * tickBytes(t))
	calls := 0
	forkTick(t, p, "a", 1_000, &calls)
	forkTick(t, p, "b", 1_000, &calls)
	forkTick(t, p, "a", 2_000, &calls) // a is now the most recently used
	forkTick(t, p, "c", 1_000, &calls) // evicts b, not a
	if calls != 3 {
		t.Fatalf("captures = %d, want 3 (a's second fork reuses its checkpoint)", calls)
	}
	st := p.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Captures != 3 || st.Forks != 4 {
		t.Errorf("stats = %+v, want 2 entries, 1 eviction, 3 captures, 4 forks", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("bytes %d over the %d budget", st.Bytes, st.MaxBytes)
	}
	forkTick(t, p, "a", 3_000, &calls)
	if calls != 3 {
		t.Errorf("a was evicted: captures = %d, want 3", calls)
	}
	forkTick(t, p, "b", 3_000, &calls)
	if calls != 4 {
		t.Errorf("b survived eviction: captures = %d, want 4", calls)
	}
}

// TestCheckpointPoolOversizeEvictedImmediately: a checkpoint larger than the
// whole budget leaves the pool as soon as it is captured, the fork that
// captured it still completes correctly, and the next use recaptures.
func TestCheckpointPoolOversizeEvictedImmediately(t *testing.T) {
	p := core.NewCheckpointPool(1)
	calls := 0
	forkTick(t, p, "big", 1_000, &calls)
	st := p.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 || st.Captures != 1 || st.Forks != 1 {
		t.Errorf("stats = %+v, want an empty pool after 1 capture, 1 fork, 1 eviction", st)
	}
	forkTick(t, p, "big", 2_000, &calls)
	if calls != 2 {
		t.Errorf("captures = %d, want 2 (the evicted checkpoint is recaptured)", calls)
	}
}

// TestCheckpointPoolSparesInflightCapture: an entry whose warmup is still
// running holds no bytes, so budget pressure from other keys evicts resident
// checkpoints and never the capture in progress.
func TestCheckpointPoolSparesInflightCapture(t *testing.T) {
	p := core.NewCheckpointPool(tickBytes(t))
	calls := 0
	var mid core.PoolStats
	if err := p.Do("slow", func() (*core.Checkpoint, error) {
		// "slow" is the least recently used entry while these run.
		forkTick(t, p, "a", 1_000, &calls)
		forkTick(t, p, "b", 1_000, &calls) // over budget: evicts a, not slow
		mid = p.Stats()
		return captureTick(&calls)()
	}, func(cp *core.Checkpoint) error {
		cp.Fork(1_000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if mid.Entries != 2 || mid.Evictions != 1 {
		t.Errorf("stats while slow was capturing = %+v, want 2 entries (slow, b) after 1 eviction", mid)
	}
	if calls != 3 {
		t.Errorf("captures = %d, want 3", calls)
	}
}

// TestCheckpointPoolCaptureError: a failed capture is returned and leaves no
// entry behind, so the next call on the key captures afresh.
func TestCheckpointPoolCaptureError(t *testing.T) {
	p := core.NewCheckpointPool(1 << 30)
	boom := errors.New("boom")
	err := p.Do("k", func() (*core.Checkpoint, error) { return nil, boom },
		func(*core.Checkpoint) error { t.Error("fn ran without a checkpoint"); return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want %v", err, boom)
	}
	if st := p.Stats(); st.Entries != 0 || st.Captures != 0 {
		t.Errorf("stats after a failed capture = %+v, want empty", st)
	}
	calls := 0
	forkTick(t, p, "k", 1_000, &calls)
	if calls != 1 {
		t.Errorf("captures = %d, want 1", calls)
	}
}

// TestCheckpointPoolConcurrentKeys: goroutines working distinct keys share
// nothing but the pool's index; every fork matches its cold run and the
// counters add up. Run under -race.
func TestCheckpointPoolConcurrentKeys(t *testing.T) {
	const keys, forks = 4, 3
	p := core.NewCheckpointPool(1 << 30)
	var wg sync.WaitGroup
	errs := make([]error, keys)
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calls := 0
			for f := 0; f < forks; f++ {
				measure := uint64(1_000 * (f + 1))
				var got core.RunResult
				if err := p.Do(fmt.Sprint("key", k), captureTick(&calls), func(cp *core.Checkpoint) error {
					got = cp.Fork(measure)
					return nil
				}); err != nil {
					errs[k] = err
					return
				}
				if want := coldTick(measure); fmt.Sprint(got.Values) != fmt.Sprint(want.Values) {
					errs[k] = fmt.Errorf("key%d fork of %d = %v, want %v", k, measure, got.Values, want.Values)
					return
				}
			}
			if calls != 1 {
				errs[k] = fmt.Errorf("key%d captured %d times, want 1", k, calls)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if st := p.Stats(); st.Entries != keys || st.Captures != keys || st.Forks != keys*forks {
		t.Errorf("stats = %+v, want %d entries, %d captures, %d forks", st, keys, keys, keys*forks)
	}
}

// TestForkMemo: repeating the most recent measured length is answered from
// the materialized state and counts no fork; a different length forks.
func TestForkMemo(t *testing.T) {
	cp, err := core.CaptureWarmup(newTickWorkload(), tickWarmup)
	if err != nil {
		t.Fatal(err)
	}
	a := cp.ForkMemo(1_000)
	if b := cp.ForkMemo(1_000); fmt.Sprint(a.Values) != fmt.Sprint(b.Values) || cp.Forks() != 1 {
		t.Errorf("repeat ForkMemo: %v vs %v after %d forks, want equal after 1", a.Values, b.Values, cp.Forks())
	}
	if c := cp.ForkMemo(2_000); fmt.Sprint(c.Values) != fmt.Sprint(coldTick(2_000).Values) || cp.Forks() != 2 {
		t.Errorf("ForkMemo of a new length = %v after %d forks, want the cold run after 2", c.Values, cp.Forks())
	}
}

// TestCaptureWarmupRequiresWarmRunnable: a workload without the warm-start
// contract cannot be checkpointed.
func TestCaptureWarmupRequiresWarmRunnable(t *testing.T) {
	if _, err := core.CaptureWarmup(newToyWorkload(), 100); err == nil {
		t.Error("CaptureWarmup of a plain Runnable succeeded, want an error")
	}
}
