package scenarios

import (
	"testing"

	"dprof/internal/cache"
	"dprof/internal/core"
)

// run executes a scenario with small windows and returns its result.
func run(t *testing.T, inst core.Runnable) core.RunResult {
	t.Helper()
	res := core.RunBare(inst, 250_000, 1_500_000)
	if res.Values["throughput"] <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	return res
}

func TestFalseSharePaddingHelps(t *testing.T) {
	t.Parallel()
	packed := run(t, NewFalseShare(DefaultFalseShareConfig()))
	cfg := DefaultFalseShareConfig()
	cfg.Align = 64
	padded := run(t, NewFalseShare(cfg))
	if padded.Values["throughput"] <= packed.Values["throughput"] {
		t.Errorf("padding did not help: packed %.0f/s, padded %.0f/s",
			packed.Values["throughput"], padded.Values["throughput"])
	}
}

func TestConflictColoringHelps(t *testing.T) {
	t.Parallel()
	aligned := run(t, NewConflict(DefaultConflictConfig()))
	cfg := DefaultConflictConfig()
	cfg.Colored = true
	colored := run(t, NewConflict(cfg))
	// The aligned pool thrashes one 2-way set with 24 buffers; coloring
	// should be several times faster, not marginally.
	if colored.Values["throughput"] < 2*aligned.Values["throughput"] {
		t.Errorf("coloring speedup too small: aligned %.0f/s, colored %.0f/s",
			aligned.Values["throughput"], colored.Values["throughput"])
	}
}

func TestTrueSharePartitioningHelps(t *testing.T) {
	t.Parallel()
	shared := NewTrueShare(DefaultTrueShareConfig())
	sharedRes := run(t, shared)
	cfg := DefaultTrueShareConfig()
	cfg.Partition = true
	partRes := run(t, NewTrueShare(cfg))
	if partRes.Values["throughput"] <= sharedRes.Values["throughput"] {
		t.Errorf("partitioning did not help: shared %.0f/s, partitioned %.0f/s",
			sharedRes.Values["throughput"], partRes.Values["throughput"])
	}
	// The bucket locks must actually be contended in the shared layout.
	var contended bool
	for _, c := range shared.Locks().Classes() {
		if c.Name == "job lock" && c.Contentions > 0 {
			contended = true
		}
	}
	if !contended {
		t.Error("job lock never contended in the shared layout")
	}
}

func TestAlienPingLocalFreeHelps(t *testing.T) {
	t.Parallel()
	remote := run(t, NewAlienPing(DefaultAlienPingConfig()))
	cfg := DefaultAlienPingConfig()
	cfg.LocalFree = true
	local := run(t, NewAlienPing(cfg))
	if local.Values["throughput"] <= remote.Values["throughput"] {
		t.Errorf("local free did not help: remote %.0f/s, local %.0f/s",
			remote.Values["throughput"], local.Values["throughput"])
	}
}

// TestNumaRemoteLocalAllocHelps is the ISSUE 3 acceptance check: on the 4x4
// paper topology, cross-chip transfers and remote-node fills dominate the
// deep misses of the remote-alloc configuration, and node-local allocation
// eliminates them (and the slowdown they cause).
func TestNumaRemoteLocalAllocHelps(t *testing.T) {
	t.Parallel()
	remote := NewNumaRemote(DefaultNumaRemoteConfig())
	remoteRes := run(t, remote)
	cfg := DefaultNumaRemoteConfig()
	cfg.LocalAlloc = true
	localRes := run(t, NewNumaRemote(cfg))

	if share := remoteRes.Values["cross_chip_share"]; share < 0.5 {
		t.Errorf("cross-chip misses do not dominate before the fix: share %.2f", share)
	}
	if share := localRes.Values["cross_chip_share"]; share > 0.01 {
		t.Errorf("cross-chip misses survive the fix: share %.2f", share)
	}
	if localRes.Values["throughput"] <= remoteRes.Values["throughput"] {
		t.Errorf("node-local allocation did not help: remote %.0f/s, local %.0f/s",
			remoteRes.Values["throughput"], localRes.Values["throughput"])
	}
}

// TestNumaRemoteSingleSocketHasNoCrossChip pins the degenerate topology: on
// 1x16 the same workload sees zero cross-chip traffic by construction.
func TestNumaRemoteSingleSocketHasNoCrossChip(t *testing.T) {
	t.Parallel()
	cfg := DefaultNumaRemoteConfig()
	cfg.Sim.Topology = cache.SingleSocket(16)
	res := run(t, NewNumaRemote(cfg))
	if res.Values["cross_chip_hits"] != 0 || res.Values["remote_dram_fills"] != 0 {
		t.Errorf("single-socket run saw cross-chip traffic: %+v", res.Values)
	}
}

// TestScenariosStopAtHorizon guards against runaway event loops: a primed
// scenario must stop scheduling work past its horizon, so RunAll terminates.
func TestScenariosStopAtHorizon(t *testing.T) {
	t.Parallel()
	insts := []core.Runnable{
		NewFalseShare(DefaultFalseShareConfig()),
		NewConflict(DefaultConflictConfig()),
		NewTrueShare(DefaultTrueShareConfig()),
		NewAlienPing(DefaultAlienPingConfig()),
		NewNumaRemote(DefaultNumaRemoteConfig()),
	}
	for _, inst := range insts {
		core.Prime(inst, 300_000)
		inst.Machine().RunAll()
		if now := inst.Machine().MaxCoreTime(); now < 300_000 || now > 5_000_000 {
			t.Errorf("%T ran to %d cycles (horizon 300k)", inst, now)
		}
	}
}
