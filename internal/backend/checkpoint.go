package backend

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/frontend"
)

// ForEach calls fn for every buffered uop in order, oldest first
// (checkpointing walks ROB contents with it).
func (r *ROB) ForEach(fn func(*frontend.Uop)) {
	for i := 0; i < r.count; i++ {
		fn(r.entries[(r.head+i)%len(r.entries)])
	}
}

// CaptureCheckpoint captures the buffered uops oldest-first plus the
// allocation/retire/squash stats. epID maps episode pointers to indices
// in the checkpoint's deduplicated episode table.
func (r *ROB) CaptureCheckpoint(epID func(*frontend.LineEpisode) int) checkpoint.ROBState {
	st := checkpoint.ROBState{
		Uops:  make([]checkpoint.UopState, 0, r.count),
		Stats: r.Stats,
	}
	r.ForEach(func(u *frontend.Uop) {
		st.Uops = append(st.Uops, u.CaptureCheckpoint(epID))
	})
	return st
}

// RestoreCheckpoint replaces the ROB's contents with the captured uops,
// rebuilding the ring at head 0 — ring phase is representation, not
// simulated state. newUop supplies uop storage (the core's pool
// allocator) so restored uops participate in recycling like fresh ones.
// Entries are installed directly rather than via Push so Stats.Pushed
// stays exactly as captured.
func (r *ROB) RestoreCheckpoint(st checkpoint.ROBState, eps []*frontend.LineEpisode, newUop func() *frontend.Uop) error {
	if len(st.Uops) > len(r.entries) {
		return fmt.Errorf("backend: checkpoint has %d ROB entries, capacity is %d", len(st.Uops), len(r.entries))
	}
	for i := range r.entries {
		r.entries[i] = nil
	}
	r.head = 0
	r.count = len(st.Uops)
	for i := range st.Uops {
		u := newUop()
		if err := u.RestoreCheckpoint(st.Uops[i], eps); err != nil {
			return err
		}
		r.entries[i] = u
	}
	r.Stats = st.Stats
	return nil
}
