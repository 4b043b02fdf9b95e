package hashtab

import "unsafe"

// Sparse holds the live elements of a dense array and their slot indices:
// the checkpoint form of a table and of a cache bank.
type Sparse[T any] struct {
	slots []uint32
	vals  []T
}

// MakeSparse returns a sparse array of n elements, sized exactly so Bytes
// can count lengths.
func MakeSparse[T any](n int) Sparse[T] {
	return Sparse[T]{slots: make([]uint32, n), vals: make([]T, n)}
}

// Set records v from dense slot slot as element k.
func (s *Sparse[T]) Set(k, slot int, v T) {
	s.slots[k], s.vals[k] = uint32(slot), v
}

// Len returns the number of elements.
func (s *Sparse[T]) Len() int { return len(s.slots) }

// Scatter writes the elements back to their slots of a zeroed dense array.
func (s *Sparse[T]) Scatter(dense []T) {
	for i, slot := range s.slots {
		dense[slot] = s.vals[i]
	}
}

// Bytes is the sparse array's exact resident size.
func (s *Sparse[T]) Bytes() uint64 {
	var zero T
	return uint64(len(s.slots))*uint64(unsafe.Sizeof(uint32(0))) +
		uint64(len(s.vals))*uint64(unsafe.Sizeof(zero))
}
