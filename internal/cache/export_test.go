package cache

// CheckInvariants exposes the internal consistency checker to tests: MESI
// single-writer, L1⊆L2 inclusion, and directory accuracy.
func (h *Hierarchy) CheckInvariants() error { return h.checkInvariants() }
