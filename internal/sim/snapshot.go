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
	"reflect"

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

// rewind re-seeds the underlying source and replays draws steps, leaving the
// stream exactly where it was when a snapshot recorded (seed, draws). The
// wrapper pointer is what the core's rand.Rand holds, so swapping the inner
// source rewinds the live RNG in place.
func (s *countedSource) rewind(seed int64, draws uint64) {
	s.src = rand.NewSource(seed).(rand.Source64)
	for i := uint64(0); i < draws; i++ {
		s.src.Uint64()
	}
	s.draws = draws
}

// Snapshotter is implemented by components attached to a machine (profiler,
// allocator, kernel, lock registry, workloads) whose mutable state must
// travel with Machine.Snapshot/Restore. SnapshotState returns an immutable
// deep copy of the component's state; RestoreState rewinds the component to
// a state previously returned by its own SnapshotState.
type Snapshotter interface {
	SnapshotState() any
	RestoreState(state any)
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

// wheelState is the event wheel's snapshot.
type wheelState struct {
	events  eventHeap
	seq     uint64
	now     uint64
	next    event
	hasNext bool
	winLen  uint64
	winNext uint64
	winFn   func(boundary uint64)
}

// Snapshot is a deep copy of a machine's mutable state at a task boundary.
// It is bound to the machine it was taken from (wheel events close over live
// workload objects) and immutable once taken.
type Snapshot struct {
	wheel    wheelState
	cores    []coreState
	overhead map[string]uint64
	ranges   []WatchRange

	// Hook registrations at snapshot time; Restore truncates back to these
	// counts so hooks attached afterwards do not leak into a fork.
	nAccess  int
	nWork    int
	alwaysOn int

	hier  *cache.Checkpoint
	blobs []any // one per registered Snapshotter, in registration order

	bytes uint64
}

// Snapshot captures the machine: the event wheel (bypass slot and window-tick
// state included), every core's clock/stack/RNG position, hook arming, the
// profiling-overhead tally, the full cache hierarchy, and every registered
// Snapshotter's state. It must be taken at a task boundary (between Run
// calls, or from a window-boundary callback), never from inside a running
// task.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		wheel: wheelState{
			events:  append(eventHeap(nil), m.wheel.events...),
			seq:     m.wheel.seq,
			now:     m.wheel.now,
			next:    m.wheel.next,
			hasNext: m.wheel.hasNext,
			winLen:  m.wheel.winLen,
			winNext: m.wheel.winNext,
			winFn:   m.wheel.winFn,
		},
		cores:    make([]coreState, len(m.cores)),
		overhead: make(map[string]uint64, len(m.Overhead)),
		ranges:   append([]WatchRange(nil), m.ranges...),
		nAccess:  len(m.accessHooks),
		nWork:    len(m.workHooks),
		alwaysOn: m.alwaysOn,
		hier:     m.Hier.Checkpoint(),
	}
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
	for _, sn := range m.snapshotters {
		s.blobs = append(s.blobs, sn.SnapshotState())
	}
	s.bytes = s.estimateBytes()
	return s
}

// Restore rewinds the machine (and every Snapshotter registered at snapshot
// time) to the snapshotted instant. It copies out of the immutable snapshot,
// so the same snapshot restores any number of times. Per-core arm times are
// restored verbatim rather than recomputed — Rearm would consult the hooks'
// current arming state, which the Snapshotter restores only afterwards; the
// captured values are by construction what a cold run had at this instant.
func (m *Machine) Restore(s *Snapshot) {
	m.wheel.events = append(m.wheel.events[:0], s.wheel.events...)
	m.wheel.seq = s.wheel.seq
	m.wheel.now = s.wheel.now
	m.wheel.next = s.wheel.next
	m.wheel.hasNext = s.wheel.hasNext
	m.wheel.winLen = s.wheel.winLen
	m.wheel.winNext = s.wheel.winNext
	m.wheel.winFn = s.wheel.winFn
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

// Bytes returns an estimate of the snapshot's resident size (computed once at
// capture), for checkpoint-pool budgeting. The cache hierarchy's part is
// exact (cache.Checkpoint.Bytes); the machine's own state and the
// Snapshotter blobs are estimated.
func (s *Snapshot) Bytes() uint64 { return s.bytes }

// estimateBytes sums the machine's own state, the hierarchy checkpoint's
// exact size, and a reflective blobSize walk over the Snapshotter blobs,
// whose types this package cannot see.
func (s *Snapshot) estimateBytes() uint64 {
	n := uint64(len(s.wheel.events))*40 + 128
	for _, c := range s.cores {
		n += 64 + uint64(len(c.stack))*8
	}
	n += uint64(len(s.overhead))*48 + uint64(len(s.ranges))*16
	n += s.hier.Bytes()
	z := sizer{seen: map[uintptr]bool{}, flat: map[reflect.Type]bool{}}
	for _, b := range s.blobs {
		n += z.blobSize(b)
	}
	return n
}

// sizer estimates the memory a Snapshotter blob owns, for budgeting. The
// blob root, typically a pointer to the component's state struct, is
// followed. Below it a pointer counts as one word and is not followed: a
// blob owns its slices, maps and strings, but the pointers inside them
// reference live workload objects (in-flight packets, map keys) that the
// snapshot does not pin on its own. Slices and maps reachable twice count
// once; funcs and chans count as a word.
type sizer struct {
	seen map[uintptr]bool
	flat map[reflect.Type]bool // memoized: the type owns nothing beyond its inline size
}

func (z *sizer) blobSize(b any) uint64 {
	v := reflect.ValueOf(b)
	if !v.IsValid() {
		return 0
	}
	n := uint64(16) // the interface holding the blob
	if v.Kind() == reflect.Ptr {
		if v.IsNil() {
			return n
		}
		v = v.Elem()
	}
	return n + uint64(v.Type().Size()) + z.owned(v)
}

// owned is the memory v owns outside its inline footprint.
func (z *sizer) owned(v reflect.Value) uint64 {
	if z.isFlat(v.Type()) {
		return 0
	}
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() || v.Elem().Kind() == reflect.Ptr {
			return 0
		}
		return uint64(v.Elem().Type().Size()) + z.owned(v.Elem())
	case reflect.Slice:
		if v.IsNil() || z.seen[v.Pointer()] {
			return 0
		}
		z.seen[v.Pointer()] = true
		n := uint64(v.Len()) * uint64(v.Type().Elem().Size())
		if !z.isFlat(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += z.owned(v.Index(i))
			}
		}
		return n
	case reflect.Map:
		if v.IsNil() || z.seen[v.Pointer()] {
			return 0
		}
		z.seen[v.Pointer()] = true
		// A bucket header per map, and a tophash byte and overflow share
		// per entry, rounded to 16.
		n := 48 + uint64(v.Len())*(uint64(v.Type().Key().Size())+uint64(v.Type().Elem().Size())+16)
		if !z.isFlat(v.Type().Key()) || !z.isFlat(v.Type().Elem()) {
			for it := v.MapRange(); it.Next(); {
				n += z.owned(it.Key()) + z.owned(it.Value())
			}
		}
		return n
	case reflect.Struct:
		n := uint64(0)
		for i := 0; i < v.NumField(); i++ {
			n += z.owned(v.Field(i))
		}
		return n
	case reflect.Array:
		n := uint64(0)
		for i := 0; i < v.Len(); i++ {
			n += z.owned(v.Index(i))
		}
		return n
	case reflect.String:
		return uint64(v.Len())
	}
	return 0
}

// isFlat reports whether values of t own no memory beyond their inline
// size: no slices, maps, strings or interfaces, except behind a pointer.
func (z *sizer) isFlat(t reflect.Type) bool {
	if f, ok := z.flat[t]; ok {
		return f
	}
	f := true
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.String, reflect.Interface:
		f = false
	case reflect.Struct:
		for i := 0; i < t.NumField() && f; i++ {
			f = z.isFlat(t.Field(i).Type)
		}
	case reflect.Array:
		f = t.Len() == 0 || z.isFlat(t.Elem())
	}
	z.flat[t] = f
	return f
}
