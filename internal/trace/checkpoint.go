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
// by ID (-1 when the walker is lost outside any block), each call in
// progress by its return address, and the loop counters as the nonzero
// ones (a wrong-path fork has none).
func (w *Walker) CaptureCheckpoint() checkpoint.WalkerState {
	st := checkpoint.WalkerState{
		Rng:            w.r.State(),
		CurBlock:       int(w.cur),
		InstIdx:        w.instIdx,
		LostPC:         w.lostPC,
		WrongPath:      w.wrongPath,
		DispatchCenter: w.dispatchCenter,
		Count:          w.count,
	}
	if len(w.stack) > 0 {
		st.Stack = make([]isa.Addr, len(w.stack))
		for i, id := range w.stack {
			st.Stack[i] = w.prog.Blocks[id].Addr
		}
	}
	for id, n := range w.loopCnt {
		if n != 0 {
			st.LoopCnt = append(st.LoopCnt, checkpoint.LoopCount{Block: uint32(id), Count: n})
		}
	}
	return st
}

// RestoreCheckpoint overwrites the walker's position and stream state
// from a captured state, keeping its program. Slices from st are copied,
// never aliased. A correct-path state zeroes every loop counter before
// writing the captured ones; a wrong-path state leaves the walker without
// counters.
func (w *Walker) RestoreCheckpoint(st checkpoint.WalkerState) error {
	nBlocks := len(w.prog.Blocks)
	if st.CurBlock < -1 || st.CurBlock >= nBlocks {
		return fmt.Errorf("trace: checkpoint block %d out of range (program has %d blocks)", st.CurBlock, nBlocks)
	}
	if st.CurBlock >= 0 && (st.InstIdx < 0 || st.InstIdx >= w.prog.Blocks[st.CurBlock].NumInsts()) {
		return fmt.Errorf("trace: checkpoint instruction %d outside block %d", st.InstIdx, st.CurBlock)
	}
	for _, addr := range st.Stack {
		if id := w.prog.BlockIndex(addr); id < 0 || w.prog.Blocks[id].Addr != addr {
			return fmt.Errorf("trace: checkpoint return address %v is not a block start", addr)
		}
	}
	if st.WrongPath && len(st.LoopCnt) > 0 {
		return fmt.Errorf("trace: wrong-path checkpoint has %d loop counters", len(st.LoopCnt))
	}
	for _, lc := range st.LoopCnt {
		if int(lc.Block) >= nBlocks {
			return fmt.Errorf("trace: checkpoint loop counter of block %d out of range (program has %d blocks)", lc.Block, nBlocks)
		}
	}
	w.r.SetState(st.Rng)
	w.stack = w.stack[:0]
	for _, addr := range st.Stack {
		w.stack = append(w.stack, int32(w.prog.BlockIndex(addr)))
	}
	if st.WrongPath {
		w.loopCnt = nil
	} else {
		if w.loopCnt == nil {
			w.loopCnt = make([]uint16, nBlocks)
		}
		clear(w.loopCnt)
		for _, lc := range st.LoopCnt {
			w.loopCnt[lc.Block] = lc.Count
		}
	}
	w.cur = int32(st.CurBlock)
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
