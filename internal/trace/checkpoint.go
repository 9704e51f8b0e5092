package trace

import (
	"fmt"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/rng"
)

// CaptureCheckpoint captures the walker's position and stream state. The
// program is reconstruction input, not state: the current block is stored
// by ID (-1 when the walker is lost outside any block, and also for a nil
// LoopCnt — wrong-path forks carry no loop counters).
func (w *Walker) CaptureCheckpoint() checkpoint.WalkerState {
	st := checkpoint.WalkerState{
		Rng:            w.r.State(),
		Stack:          append([]isa.Addr(nil), w.stack...),
		CurBlock:       -1,
		InstIdx:        w.instIdx,
		LostPC:         w.lostPC,
		WrongPath:      w.wrongPath,
		DispatchCenter: w.dispatchCenter,
		Count:          w.count,
	}
	if w.loopCnt != nil {
		st.LoopCnt = append([]uint16(nil), w.loopCnt...)
	}
	if w.cur != nil {
		st.CurBlock = int(w.cur.ID)
	}
	return st
}

// RestoreCheckpoint overwrites the walker's position and stream state
// from a captured state, keeping its program. Slices from st are copied,
// never aliased.
func (w *Walker) RestoreCheckpoint(st checkpoint.WalkerState) error {
	if st.CurBlock >= len(w.prog.Blocks) {
		return fmt.Errorf("trace: checkpoint block %d out of range (program has %d blocks)", st.CurBlock, len(w.prog.Blocks))
	}
	if st.LoopCnt != nil && len(st.LoopCnt) != len(w.prog.Blocks) {
		return fmt.Errorf("trace: checkpoint has %d loop counters, program has %d blocks", len(st.LoopCnt), len(w.prog.Blocks))
	}
	w.r.SetState(st.Rng)
	w.stack = append(w.stack[:0], st.Stack...)
	if st.LoopCnt == nil {
		w.loopCnt = nil
	} else {
		if w.loopCnt == nil {
			w.loopCnt = make([]uint16, len(st.LoopCnt))
		}
		copy(w.loopCnt, st.LoopCnt)
	}
	if st.CurBlock >= 0 {
		w.cur = &w.prog.Blocks[st.CurBlock]
	} else {
		w.cur = nil
	}
	w.instIdx = st.InstIdx
	w.lostPC = st.LostPC
	w.wrongPath = st.WrongPath
	w.dispatchCenter = st.DispatchCenter
	w.count = st.Count
	return nil
}

// NewFromCheckpoint builds a walker over prog positioned at a captured
// state (used for wrong-path walkers, which have no constructor taking a
// seed).
func NewFromCheckpoint(prog *cfg.Program, st checkpoint.WalkerState) (*Walker, error) {
	w := &Walker{prog: prog, r: rng.New(0)}
	if err := w.RestoreCheckpoint(st); err != nil {
		return nil, err
	}
	return w, nil
}
