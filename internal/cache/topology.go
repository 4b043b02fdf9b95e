package cache

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology describes the socket layout of the simulated machine: how many
// chips it has and how many cores sit on each chip. The paper's machine is a
// four-socket AMD box (4 chips x 4 cores, one L3 per chip, HyperTransport
// links between chips); the simulator's default remains the flat
// single-socket 16-core machine, which reproduces the pre-topology results
// exactly.
//
// Cores are numbered socket-major: cores [0, CoresPerSocket) are socket 0,
// the next CoresPerSocket cores are socket 1, and so on.
type Topology struct {
	Sockets        int
	CoresPerSocket int
}

// SingleSocket returns the flat topology: one chip holding all cores.
func SingleSocket(cores int) Topology {
	return Topology{Sockets: 1, CoresPerSocket: cores}
}

// PaperTopology returns the paper's four-socket AMD layout (4 chips x 4
// cores).
func PaperTopology() Topology {
	return Topology{Sockets: 4, CoresPerSocket: 4}
}

// NumCores returns the machine's total core count.
func (t Topology) NumCores() int { return t.Sockets * t.CoresPerSocket }

// SocketOf returns the socket (chip) a core sits on.
func (t Topology) SocketOf(core int) int { return core / t.CoresPerSocket }

// CoresOn returns the core IDs belonging to a socket, lowest first.
func (t Topology) CoresOn(socket int) []int {
	out := make([]int, t.CoresPerSocket)
	for i := range out {
		out[i] = socket*t.CoresPerSocket + i
	}
	return out
}

// Validate reports whether the topology is usable. Each factor is checked
// against MaxCores before they are multiplied, so a product that overflows
// int cannot wrap into range.
func (t Topology) Validate() error {
	if t.Sockets <= 0 || t.CoresPerSocket <= 0 {
		return fmt.Errorf("cache: topology %dx%d must have positive sockets and cores per socket",
			t.Sockets, t.CoresPerSocket)
	}
	if t.Sockets > MaxCores || t.CoresPerSocket > MaxCores || t.NumCores() > MaxCores {
		return fmt.Errorf("cache: topology %dx%d has more than %d cores",
			t.Sockets, t.CoresPerSocket, MaxCores)
	}
	return nil
}

// String renders the topology as "SOCKETSxCORES", e.g. "4x4".
func (t Topology) String() string {
	return fmt.Sprintf("%dx%d", t.Sockets, t.CoresPerSocket)
}

// ParseTopology parses a "SOCKETSxCORES" string such as "4x4" or "1x16".
func ParseTopology(s string) (Topology, error) {
	parts := strings.SplitN(strings.TrimSpace(s), "x", 2)
	if len(parts) != 2 {
		return Topology{}, fmt.Errorf("cache: topology %q is not of the form SOCKETSxCORES (e.g. 4x4)", s)
	}
	sockets, err1 := strconv.Atoi(parts[0])
	cps, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		return Topology{}, fmt.Errorf("cache: topology %q is not of the form SOCKETSxCORES (e.g. 4x4)", s)
	}
	t := Topology{Sockets: sockets, CoresPerSocket: cps}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}
