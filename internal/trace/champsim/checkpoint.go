package champsim

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/trace"
)

// CaptureSource implements trace.Source. The trace file itself is
// reconstruction input; what is captured is the stream position
// (Count/Primed — the reader is reseeked on restore), and in standalone
// mode the derived-wrong-path structures (decode cache as a sparse
// slot-sorted table, RAS mirror oldest-first). Differential mode captures
// the shadow walker instead, under the same tagged union.
func (s *Source) CaptureSource() checkpoint.SourceState {
	cs := &checkpoint.ChampSimState{Count: s.count, Primed: s.primed}
	st := checkpoint.SourceState{Kind: checkpoint.SourceChampSim, ChampSim: cs}
	if s.shadow != nil {
		w := s.shadow.CaptureCheckpoint()
		st.Walker = &w
		return st
	}
	for slot := range s.dec.inst {
		if !s.dec.valid[slot] {
			continue
		}
		in := s.dec.inst[slot]
		cs.Decode = append(cs.Decode, checkpoint.ChampSimDecodeEntry{
			Slot:   slot,
			PC:     in.PC,
			Size:   in.Size,
			Kind:   uint8(in.Kind),
			Taken:  in.Taken,
			Target: in.Target,
		})
	}
	cs.RAS = s.ras.entries()
	return st
}

// RestoreSource implements trace.OracleSource: it reseeks the reader to
// the captured stream position (re-reading the lookahead record) and
// overwrites the shadow structures. The source must be over the same
// trace (and, differentially, the same workload) the checkpoint was
// taken from.
func (s *Source) RestoreSource(st checkpoint.SourceState) error {
	if st.Kind != checkpoint.SourceChampSim || st.ChampSim == nil {
		return fmt.Errorf("champsim: cannot restore a %q source into a trace replay", st.Kind)
	}
	cs := st.ChampSim
	if s.shadow != nil {
		if st.Walker == nil {
			return fmt.Errorf("champsim: differential replay checkpoint is missing its shadow walker")
		}
		if err := s.shadow.RestoreCheckpoint(*st.Walker); err != nil {
			return err
		}
	}
	s.dec = decodeCache{}
	for _, e := range cs.Decode {
		if e.Slot < 0 || e.Slot >= len(s.dec.inst) {
			return fmt.Errorf("champsim: checkpoint decode-cache slot %d out of range", e.Slot)
		}
		s.dec.inst[e.Slot] = isa.Inst{
			PC:     e.PC,
			Size:   e.Size,
			Kind:   isa.BranchKind(e.Kind),
			Taken:  e.Taken,
			Target: e.Target,
		}
		s.dec.valid[e.Slot] = true
	}
	s.ras.restore(cs.RAS)
	s.count = cs.Count
	s.primed = false
	s.err = nil
	if cs.Primed {
		// The lookahead record is record #Count (Count instructions were
		// emitted, each consuming one record beyond the priming read).
		if err := s.r.SeekRecord(cs.Count); err != nil {
			return err
		}
		if err := s.r.Next(&s.cur); err != nil {
			return err
		}
		s.primed = true
	} else if err := s.r.SeekRecord(0); err != nil {
		return err
	}
	return nil
}

// RestoreWrong implements trace.OracleSource. Differential wrong paths
// are shadow-walker forks ("cfg" states, delegated); standalone wrong
// paths are rebuilt over this source's decode cache.
func (s *Source) RestoreWrong(st checkpoint.SourceState) (trace.Source, error) {
	if s.shadow != nil {
		return s.shadow.RestoreWrong(st)
	}
	if st.Kind != checkpoint.SourceChampSimWrong || st.ChampSim == nil {
		return nil, fmt.Errorf("champsim: cannot restore a %q wrong path under a standalone trace replay", st.Kind)
	}
	w := &Wrong{src: s, pc: st.ChampSim.PC}
	w.ras.restore(st.ChampSim.RAS)
	return w, nil
}

// CaptureSource implements trace.Source for the derived wrong path: its
// position and RAS copy (the decode cache belongs to the parent source).
func (w *Wrong) CaptureSource() checkpoint.SourceState {
	return checkpoint.SourceState{
		Kind: checkpoint.SourceChampSimWrong,
		ChampSim: &checkpoint.ChampSimState{
			PC:  w.pc,
			RAS: w.ras.entries(),
		},
	}
}

// entries returns the live entries oldest-first (for checkpointing).
func (m *rasMirror) entries() []isa.Addr {
	out := make([]isa.Addr, 0, m.depth)
	for i := 0; i < m.depth; i++ {
		out = append(out, m.buf[(m.top+rasDepth-m.depth+i)%rasDepth])
	}
	return out
}

// restore rebuilds the stack from entries, oldest first.
func (m *rasMirror) restore(entries []isa.Addr) {
	m.buf = [rasDepth]isa.Addr{}
	m.top, m.depth = 0, 0
	for _, a := range entries {
		m.push(a)
	}
}
