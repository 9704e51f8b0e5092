package frontend

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// CaptureCheckpoint returns the uop's record with its episode pointer
// mapped by epID to an index in the checkpoint's deduplicated episode
// table (-1 for no episode).
func (u *Uop) CaptureCheckpoint(epID func(*LineEpisode) int) checkpoint.UopState {
	st := u.UopState
	st.EpisodeID = -1
	if u.Ep != nil {
		st.EpisodeID = epID(u.Ep)
	}
	return st
}

// RestoreCheckpoint overwrites the uop with its record, resolving the
// episode index against eps (the restored episode table).
func (u *Uop) RestoreCheckpoint(st checkpoint.UopState, eps []*LineEpisode) error {
	if st.EpisodeID >= len(eps) {
		return fmt.Errorf("frontend: uop episode index %d out of range (%d episodes)", st.EpisodeID, len(eps))
	}
	u.UopState, u.Ep = st, nil
	if st.EpisodeID >= 0 {
		u.Ep = eps[st.EpisodeID]
	}
	return nil
}

// CaptureCheckpoint returns the FTQ entry's record with its own copies of
// the instruction and line slices and its episode pointers mapped by epID
// to indexes in the checkpoint's episode table.
func (e *FTQEntry) CaptureCheckpoint(epID func(*LineEpisode) int) checkpoint.FTQEntryState {
	st := e.FTQEntryState
	st.Insts = append([]isa.Inst(nil), e.Insts...)
	st.Lines = append([]isa.Addr(nil), e.Lines...)
	st.EpisodeIDs = nil
	for _, ep := range e.Episodes {
		st.EpisodeIDs = append(st.EpisodeIDs, epID(ep))
	}
	return st
}

// NewEntryFromCheckpoint builds a fresh FTQ entry from its record,
// copying its slices and resolving episode indexes against eps.
func NewEntryFromCheckpoint(st checkpoint.FTQEntryState, eps []*LineEpisode) (*FTQEntry, error) {
	e := &FTQEntry{FTQEntryState: st}
	e.Insts = append([]isa.Inst(nil), st.Insts...)
	e.Lines = append([]isa.Addr(nil), st.Lines...)
	e.EpisodeIDs = nil
	for _, id := range st.EpisodeIDs {
		if id < 0 || id >= len(eps) {
			return nil, fmt.Errorf("frontend: FTQ entry episode index %d out of range (%d episodes)", id, len(eps))
		}
		e.Episodes = append(e.Episodes, eps[id])
	}
	return e, nil
}

// CaptureCheckpoint captures the queued entries oldest-first. epID maps
// episode pointers as in FTQEntry.CaptureCheckpoint (queued entries have
// no episodes in practice — episodes exist only once an entry leaves the
// FTQ for the IFU — but the format does not rely on that).
func (q *FTQ) CaptureCheckpoint(epID func(*LineEpisode) int) []checkpoint.FTQEntryState {
	out := make([]checkpoint.FTQEntryState, 0, q.count)
	for i := 0; i < q.count; i++ {
		e := q.entries[(q.head+i)%len(q.entries)]
		out = append(out, e.CaptureCheckpoint(epID))
	}
	return out
}

// RestoreCheckpoint replaces the queue's contents with the captured
// entries (oldest-first), rebuilding the ring at head 0 — ring phase is
// representation, not simulated state.
func (q *FTQ) RestoreCheckpoint(sts []checkpoint.FTQEntryState, eps []*LineEpisode) error {
	if len(sts) > len(q.entries) {
		return fmt.Errorf("frontend: checkpoint has %d FTQ entries, depth is %d", len(sts), len(q.entries))
	}
	q.Flush()
	for i := range sts {
		e, err := NewEntryFromCheckpoint(sts[i], eps)
		if err != nil {
			return err
		}
		q.Push(e)
	}
	return nil
}

// CaptureCheckpoint captures the IAG's sources and mispredict gate. The
// FTQ-entry pool and the retired wrong-path source (free, wrongFree) are
// allocator bookkeeping, not simulated state: a recycled object is
// bit-identical to a fresh one, so a restored IAG starting with empty
// pools produces the same stream.
func (g *IAG) CaptureCheckpoint() checkpoint.IAGState {
	st := checkpoint.IAGState{
		Oracle:            g.oracle.CaptureSource(),
		PendingMispredict: g.pendingMispredict,
	}
	if g.wrong != nil {
		w := g.wrong.CaptureSource()
		st.Wrong = &w
	}
	return st
}

// RestoreCheckpoint overwrites the IAG's sources and mispredict gate. The
// oracle rebuilds the wrong-path source when the checkpoint carries one
// (wrong paths hold no reconstruction input of their own).
func (g *IAG) RestoreCheckpoint(st checkpoint.IAGState) error {
	if err := g.oracle.RestoreSource(st.Oracle); err != nil {
		return err
	}
	g.wrong = nil
	if st.Wrong != nil {
		w, err := g.oracle.RestoreWrong(*st.Wrong)
		if err != nil {
			return err
		}
		g.wrong = w
	}
	g.pendingMispredict = st.PendingMispredict
	return nil
}
