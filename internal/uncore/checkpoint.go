package uncore

import (
	"fmt"

	"pdip/internal/checkpoint"
)

// CaptureCheckpoint captures the shared levels (including their per-owner
// attribution columns) and the tenant ports' counters. The port wiring is
// stateless and rebuilt by New.
func (u *Uncore) CaptureCheckpoint() checkpoint.UncoreState {
	return checkpoint.UncoreState{
		L2:    u.L2.CaptureCheckpoint(),
		L3:    u.L3.CaptureCheckpoint(),
		Ports: append([]checkpoint.TenantPortCounters(nil), u.portStats...),
	}
}

// RestoreCheckpoint overwrites the shared levels and the tenant ports'
// counters from a captured state. The uncore must have been built with
// the same geometry and requester count.
func (u *Uncore) RestoreCheckpoint(st checkpoint.UncoreState) error {
	if len(st.Ports) != len(u.portStats) {
		return fmt.Errorf("uncore: checkpoint has %d tenant ports, uncore has %d", len(st.Ports), len(u.portStats))
	}
	if err := u.L2.RestoreCheckpoint(st.L2); err != nil {
		return err
	}
	if err := u.L3.RestoreCheckpoint(st.L3); err != nil {
		return err
	}
	copy(u.portStats, st.Ports)
	return nil
}
