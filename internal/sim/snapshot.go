// Machine snapshot/fork: deep-copy all mutable simulation state at a task
// boundary so a warmed-up run can be checkpointed once and forked into many
// measured phases without re-simulating the warmup.
//
// Wheel events hold closures over live workload objects, so a Snapshot is
// bound to the Machine it was taken from: Restore rewinds that machine (and
// every registered Snapshotter) to the checkpointed instant. The snapshot
// itself is immutable — Restore copies out of it — so one checkpoint can seed
// any number of sequential forks, and fork-level parallelism comes from
// running distinct machines (one per warmup group) concurrently.
package sim

import (
	"math/rand"
	"unsafe"

	"dprof/internal/cache"
	"dprof/internal/sym"
)

// countedSource wraps the math/rand source so the number of values drawn is
// observable. rand.NewSource's concrete type implements Source64, and so does
// the wrapper, so rand.Rand consumes it through the exact same Uint64 path as
// before — the streams (and every golden profile) are unchanged. A core's RNG
// state is then fully described by its fixed seed and its draws: restore
// re-seeds and replays that many draws. Int63 and Uint64 each cost exactly one underlying
// Uint64 step, so replaying via Uint64 reproduces the state regardless of
// which method made the original draws. (rand.Rand.Read buffers half-drawn
// values internally and would break this accounting; simulation code never
// uses it.)
type countedSource struct {
	src   rand.Source64
	draws uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countedSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countedSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// rewind re-seeds the underlying source in place and replays draws steps,
// leaving the stream exactly where it was when a snapshot recorded (seed,
// draws). rand.NewSource is Seed applied to a fresh source, so re-seeding
// the existing one yields the same stream without allocating a new ~4.9 KB
// source per core on every restore.
func (s *countedSource) rewind(seed int64, draws uint64) {
	s.src.Seed(seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Uint64()
	}
	s.draws = draws
}

// Snapshotter is implemented by components attached to a machine whose
// state is deeper than values and slices: the profiler, the allocator,
// oprofile (the cache hierarchy is the machine's own). Components whose
// mutable state is plain values and slices (the kernel with its packet and
// connection arenas, the workloads, the PMU units) register those with
// RewindValues and RewindSlices instead, which are Snapshotters too.
// SnapshotState returns an immutable deep copy of the component's state;
// RestoreState rewinds the component to a state previously returned by its
// own SnapshotState. LiveBytes is the memory the live component keeps: its
// own arrays and the objects it owns (slab bookkeeping, address-set
// records), the part of a parked checkpoint that the snapshot does not
// hold.
type Snapshotter interface {
	SnapshotState() State
	RestoreState(state State)
	LiveBytes() uint64
}

// State is a Snapshotter's checkpoint blob. Bytes is its resident size:
// every array and map it owns, and the objects it keeps alive for
// RestoreState to write through or share (the address-set record blocks),
// so that a checkpoint pool charges what a parked entry pins. RewindValues and RewindSlices size theirs from
// the registered types.
type State interface {
	Bytes() uint64
}

// Releaser is implemented by Snapshotters whose live state includes arrays
// that RestoreState rewrites in full. Release hands them back (to recyclers
// where the arrays are fixed-size), leaving the component unusable until
// the next RestoreState; DenseBytes is the size of what Release would drop,
// and zero once released.
type Releaser interface {
	Release()
	DenseBytes() uint64
}

// AddSnapshotter registers a component for inclusion in Snapshot/Restore.
// Registration order is capture/restore order.
func (m *Machine) AddSnapshotter(s Snapshotter) {
	m.snapshotters = append(m.snapshotters, s)
}

// coreState is one core's snapshot.
type coreState struct {
	now     uint64
	stack   []sym.PC
	idle    uint64
	retired uint64
	hookArm uint64
	draws   uint64
}

// Snapshot is a deep copy of a machine's mutable state at a task boundary.
// It is bound to the machine it was taken from (wheel events close over live
// workload objects) and immutable once taken.
type Snapshot struct {
	wheel    eventWheel // events holds a copy of the heap
	win      measuredWindow
	cores    []coreState
	overhead map[string]uint64
	ranges   []WatchRange

	// Hook registrations at snapshot time; Restore truncates back to these
	// counts so hooks attached afterwards do not leak into a fork.
	nAccess  int
	nWork    int
	alwaysOn int

	hier  *cache.Checkpoint
	blobs []State // one per registered Snapshotter, in registration order

	bytes uint64
}

// Snapshot captures the machine: the event wheel (bypass slot and window-tick
// state included), the measured window and stop horizon, every core's
// clock/stack/RNG position, hook arming, the profiling-overhead tally, the
// full cache hierarchy, and every registered Snapshotter's state. It must be taken at a task boundary (between Run
// calls, or from a window-boundary callback), never from inside a running
// task.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		wheel:    m.wheel,
		win:      m.win,
		cores:    make([]coreState, len(m.cores)),
		overhead: make(map[string]uint64, len(m.Overhead)),
		ranges:   append([]WatchRange(nil), m.ranges...),
		nAccess:  len(m.accessHooks),
		nWork:    len(m.workHooks),
		alwaysOn: m.alwaysOn,
		hier:     m.Hier.Checkpoint(),
	}
	s.wheel.events = append(eventHeap(nil), m.wheel.events...)
	for i, c := range m.cores {
		s.cores[i] = coreState{
			now:     c.now,
			stack:   append([]sym.PC(nil), c.stack...),
			idle:    c.idle,
			retired: c.retired,
			hookArm: c.hookArm,
			draws:   c.src.draws,
		}
	}
	for k, v := range m.Overhead {
		s.overhead[k] = v
	}
	s.blobs = make([]State, len(m.snapshotters))
	for i, sn := range m.snapshotters {
		s.blobs[i] = sn.SnapshotState()
	}
	s.bytes = s.computeBytes()
	return s
}

// Restore rewinds the machine (and every Snapshotter registered at snapshot
// time) to the snapshotted instant. It copies out of the immutable snapshot,
// so the same snapshot restores any number of times. Per-core arm times are
// restored verbatim rather than recomputed — Rearm would consult the hooks'
// current arming state, which the Snapshotter restores only afterwards; the
// captured values are by construction what a cold run had at this instant.
func (m *Machine) Restore(s *Snapshot) {
	events := append(m.wheel.events[:0], s.wheel.events...)
	m.wheel = s.wheel
	m.wheel.events = events
	m.win = s.win
	for i, cs := range s.cores {
		c := m.cores[i]
		c.now = cs.now
		c.stack = append(c.stack[:0], cs.stack...)
		c.idle = cs.idle
		c.retired = cs.retired
		c.hookArm = cs.hookArm
		c.inHook = false
		c.src.rewind(c.seed, cs.draws)
	}
	for k := range m.Overhead {
		delete(m.Overhead, k)
	}
	for k, v := range s.overhead {
		m.Overhead[k] = v
	}
	m.ranges = append(m.ranges[:0], s.ranges...)
	m.accessHooks = m.accessHooks[:s.nAccess]
	m.armers = m.armers[:s.nAccess]
	m.workHooks = m.workHooks[:s.nWork]
	m.alwaysOn = s.alwaysOn
	m.Hier.Restore(s.hier)
	for i, sn := range m.snapshotters {
		if i < len(s.blobs) {
			sn.RestoreState(s.blobs[i])
		}
	}
}

// Release drops every piece of the machine's live state that Restore
// rewrites in full: the cache hierarchy's dense arrays
// (cache.Hierarchy.Release), then each Releaser Snapshotter's. The machine
// is unusable until the next Restore. A checkpoint pool calls it on an idle
// machine, so that between forks it keeps what the snapshot cannot rebuild.
func (m *Machine) Release() {
	m.Hier.Release()
	for _, sn := range m.snapshotters {
		if r, ok := sn.(Releaser); ok {
			r.Release()
		}
	}
}

// DenseBytes is the size of what Release drops: the hierarchy's dense
// arrays and every Releaser's. It is zero on a released machine.
func (m *Machine) DenseBytes() uint64 {
	n := m.Hier.DenseBytes()
	for _, sn := range m.snapshotters {
		if r, ok := sn.(Releaser); ok {
			n += r.DenseBytes()
		}
	}
	return n
}

// rngSourceBytes is the heap size of one math/rand source, 607 words of
// state plus two ints, as the runtime's size classes round it.
const rngSourceBytes = 5376

// LiveBytes is the memory the live machine keeps: its cores with their
// stacks and RNG sources, the event wheel, the hook tables, the
// hierarchy's dense arrays (none once released), and every Snapshotter's
// LiveBytes.
func (m *Machine) LiveBytes() uint64 {
	n := uint64(unsafe.Sizeof(*m)) + SliceBytes(m.cores) + SliceBytes(m.ctxs) +
		SliceBytes(m.wheel.events) + SliceBytes(m.accessHooks) + SliceBytes(m.armers) +
		SliceBytes(m.ranges) + SliceBytes(m.workHooks) + MapBytes(m.Overhead) +
		SliceBytes(m.snapshotters) + m.Hier.DenseBytes()
	for _, c := range m.cores {
		n += uint64(unsafe.Sizeof(*c)+unsafe.Sizeof(*c.src)+unsafe.Sizeof(*c.rng)) +
			rngSourceBytes + SliceBytes(c.stack)
	}
	for _, sn := range m.snapshotters {
		n += sn.LiveBytes()
	}
	return n
}

// Bytes returns the snapshot's resident size (computed once at capture),
// for checkpoint-pool budgeting: the machine's own state, the hierarchy
// checkpoint (cache.Checkpoint.Bytes) and every Snapshotter blob's Bytes.
func (s *Snapshot) Bytes() uint64 { return s.bytes }

// computeBytes sums the machine's own arrays, the hierarchy checkpoint and
// the blobs, each of which sizes itself.
func (s *Snapshot) computeBytes() uint64 {
	n := uint64(unsafe.Sizeof(*s)) + SliceBytes(s.wheel.events) + SliceBytes(s.cores) +
		MapBytes(s.overhead) + SliceBytes(s.ranges) + SliceBytes(s.blobs)
	for _, c := range s.cores {
		n += SliceBytes(c.stack)
	}
	n += s.hier.Bytes()
	for _, b := range s.blobs {
		n += b.Bytes()
	}
	return n
}

// SliceBytes is the size of s's backing array: its capacity times the
// element size.
func SliceBytes[T any](s []T) uint64 {
	var zero T
	return uint64(cap(s)) * uint64(unsafe.Sizeof(zero))
}

// MapBytes is the size of m as the runtime lays it out: a header, and
// groups of eight slots, each with a control byte, at most 7/8 full. It is
// exact for a map made with its final size and within 2x for one grown by
// inserts, which doubles.
func MapBytes[K comparable, V any](m map[K]V) uint64 {
	if m == nil {
		return 0
	}
	var slot struct {
		k K
		v V
	}
	slots := uint64(8)
	for slots*7/8 < uint64(len(m)) {
		slots <<= 1
	}
	return 48 + slots/8*(8+8*uint64(unsafe.Sizeof(slot)))
}
