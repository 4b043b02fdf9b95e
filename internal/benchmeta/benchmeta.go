// Package benchmeta is the provenance block perfbench stamps on every
// benchmark report: which commit produced a measurement, when, and on what
// host shape, so a reader comparing reports across commits always finds the
// same keys.
package benchmeta

import (
	"os"
	"runtime"
)

// Provenance ties a benchmark report to the commit and host that produced
// it. GitCommit and WrittenAt come from the DPROF_GIT_COMMIT and
// DPROF_WRITTEN_AT environment variables a harness (CI) may inject; the host
// fields come from the runtime, because a 1-CPU runner honestly reporting
// ~1x parallel speedup is context a reader needs to interpret any ratio.
type Provenance struct {
	GitCommit  string `json:"git_commit,omitempty"`
	WrittenAt  string `json:"written_at,omitempty"`
	GoMaxProcs int    `json:"gomaxprocs"`
	HostCPUs   int    `json:"host_cpus"`
}

// Collect stamps a Provenance from the harness environment and the runtime.
func Collect() Provenance {
	return Provenance{
		GitCommit:  os.Getenv("DPROF_GIT_COMMIT"),
		WrittenAt:  os.Getenv("DPROF_WRITTEN_AT"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		HostCPUs:   runtime.NumCPU(),
	}
}
