package workload

import (
	"fmt"
	"strconv"
	"strings"

	"dprof/internal/cache"
	"dprof/internal/mem"
	"dprof/internal/sim"
)

// Topology-aware workloads declare a shared set of placement options —
// socket count, cores per chip, and the allocator's NUMA home policy — so
// every such workload is steered the same way (cmd/dprof turns them into
// the -sockets / -cores-per-socket / -alloc-policy flags) and topology
// sweeps can rebuild any workload on any layout.

// TopologyOptions returns the shared placement options with a workload's
// default layout and policy baked in as the defaults.
func TopologyOptions(def cache.Topology, policy mem.Policy) []Option {
	return []Option{
		{Name: "sockets", Kind: Int, Default: strconv.Itoa(def.Sockets),
			Usage: "number of chips (sockets) in the machine topology"},
		{Name: "cores-per-socket", Kind: Int, Default: strconv.Itoa(def.CoresPerSocket),
			Usage: "cores on each chip"},
		{Name: "alloc-policy", Kind: Str, Default: policy.String(),
			Usage: "slab NUMA home policy: " + strings.Join(mem.PolicyNames(), ", ")},
		{Name: "pinned-node", Kind: Int, Default: "0",
			Usage: "home node when -alloc-policy is pinned"},
		SeedOption(),
	}
}

// ApplyTopology reads the shared placement options into a machine and
// allocator configuration. Workloads that declare TopologyOptions call it
// from Build before constructing the instance.
func ApplyTopology(cfg Config, scfg *sim.Config, mcfg *mem.Config) error {
	topo := cache.Topology{Sockets: cfg.Int("sockets"), CoresPerSocket: cfg.Int("cores-per-socket")}
	// Full validation (including the per-socket L3 split) here, where flag
	// input enters: a bad layout must be a CLI error, not a machine panic.
	if err := scfg.Cache.ValidateTopo(topo); err != nil {
		return err
	}
	scfg.Topology = topo
	scfg.Cores = 0 // the topology is authoritative
	ApplySeed(cfg, scfg)
	policy, err := mem.ParsePolicy(cfg.Str("alloc-policy"))
	if err != nil {
		return err
	}
	mcfg.Policy = policy
	mcfg.PinnedNode = cfg.Int("pinned-node")
	if policy == mem.Pinned && (mcfg.PinnedNode < 0 || mcfg.PinnedNode >= topo.Sockets) {
		return fmt.Errorf("workload: pinned node %d out of range [0,%d)", mcfg.PinnedNode, topo.Sockets)
	}
	return nil
}

// Placement describes how a workload spreads its load-generating threads
// across a topology: ThreadsPerSocket threads on each chip, assigned to that
// chip's lowest-numbered cores.
type Placement struct {
	ThreadsPerSocket int
}

// Cores returns the core IDs the placement occupies on a topology, in
// ascending order. A zero or negative ThreadsPerSocket means every core.
func (p Placement) Cores(topo cache.Topology) []int {
	per := p.ThreadsPerSocket
	if per <= 0 || per > topo.CoresPerSocket {
		per = topo.CoresPerSocket
	}
	var out []int
	for s := 0; s < topo.Sockets; s++ {
		out = append(out, topo.CoresOn(s)[:per]...)
	}
	return out
}
