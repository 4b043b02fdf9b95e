package sim

import "unsafe"

// RewindValues registers values for Snapshot/Restore: a checkpoint copies
// every *p, and a restore writes the copy back through p, so each p keeps
// its identity. A registered struct is copied whole, so a field added to
// it later rewinds with no further code; its slices and maps are copied as
// headers only, so register their contents with RewindSlices (after the
// value: registration order is restore order) or keep them fixed.
func RewindValues[T any](m *Machine, ps ...*T) {
	m.AddSnapshotter(valueRewind[T](ps))
}

// RewindSlices registers slices for Snapshot/Restore: a checkpoint copies
// every *p's elements, and a restore copies them back into the live array
// and resets the length to the checkpoint's, so the array keeps its
// identity (a new one is made only when the live one is too short).
func RewindSlices[T any](m *Machine, ps ...*[]T) {
	m.AddSnapshotter(sliceRewind[T](ps))
}

// valueRewind is RewindValues' Snapshotter; valueCopies its State.
type (
	valueRewind[T any] []*T
	valueCopies[T any] []T
)

func (r valueRewind[T]) SnapshotState() State {
	c := make(valueCopies[T], len(r))
	for i, p := range r {
		c[i] = *p
	}
	return c
}

func (r valueRewind[T]) RestoreState(state State) {
	for i, v := range state.(valueCopies[T]) {
		*r[i] = v
	}
}

// LiveBytes is the registered values and the list naming them.
func (r valueRewind[T]) LiveBytes() uint64 {
	var zero T
	return SliceBytes(r) + uint64(len(r))*uint64(unsafe.Sizeof(zero))
}

// Bytes is the copies and the slice header the State interface boxes.
func (c valueCopies[T]) Bytes() uint64 { return uint64(unsafe.Sizeof(c)) + SliceBytes(c) }

// sliceRewind is RewindSlices' Snapshotter; sliceCopies its State.
type (
	sliceRewind[T any] []*[]T
	sliceCopies[T any] [][]T
)

func (r sliceRewind[T]) SnapshotState() State {
	c := make(sliceCopies[T], len(r))
	for i, p := range r {
		c[i] = append([]T(nil), *p...)
	}
	return c
}

func (r sliceRewind[T]) RestoreState(state State) {
	for i, s := range state.(sliceCopies[T]) {
		*r[i] = append((*r[i])[:0], s...)
	}
}

// LiveBytes is the registered slices' arrays and the list naming them.
func (r sliceRewind[T]) LiveBytes() uint64 {
	n := SliceBytes(r)
	for _, p := range r {
		n += SliceBytes(*p)
	}
	return n
}

// Bytes is the copied arrays, their headers, and the header the State
// interface boxes.
func (c sliceCopies[T]) Bytes() uint64 {
	n := uint64(unsafe.Sizeof(c)) + SliceBytes(c)
	for _, s := range c {
		n += SliceBytes(s)
	}
	return n
}
