package mem

import "pdip/internal/checkpoint"

// CaptureCheckpoint captures the hierarchy's private L1s. The L2/L3 are
// the uncore's (captured once per socket) and the port chain is stateless
// wiring rebuilt by New at restore.
func (h *Hierarchy) CaptureCheckpoint() checkpoint.HierarchyState {
	return checkpoint.HierarchyState{
		L1I: h.L1I.CaptureCheckpoint(),
		L1D: h.L1D.CaptureCheckpoint(),
	}
}

// RestoreCheckpoint overwrites the hierarchy's L1s from a captured state.
// The hierarchy must have been built with the same geometry.
func (h *Hierarchy) RestoreCheckpoint(st checkpoint.HierarchyState) error {
	if err := h.L1I.RestoreCheckpoint(st.L1I); err != nil {
		return err
	}
	return h.L1D.RestoreCheckpoint(st.L1D)
}
