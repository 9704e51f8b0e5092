package trace

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// Source produces a dynamic instruction stream. The synthetic CFG walker
// (Walker) and the ChampSim trace-replay adapters (trace/champsim)
// implement it, so the front-end's instruction address generator is
// agnostic about where its committed and speculative paths come from.
type Source interface {
	// AppendRun appends the next instructions on this source's path to
	// dst, each with its actual control-flow outcome, and advances past
	// them: up to and including the next branch, and at most n of them
	// (n >= 1).
	AppendRun(dst []isa.Inst, n int) []isa.Inst
	// CaptureSource captures the source's position and stream state as a
	// tagged union (the backing input — program, trace file — is
	// reconstruction input, not state).
	CaptureSource() checkpoint.SourceState
}

// OracleSource is a committed-path source that additionally manages the
// wrong paths forked off it at mispredicts, and can restore itself (and
// rebuild its wrong-path companions) from captured state. The oracle owns
// wrong-path construction because only it knows where speculative fetch
// can walk: the CFG walker forks a salted walker over its program, a
// trace replay walks its shadow decode structures.
type OracleSource interface {
	Source
	// ForkWrong forks a wrong-path source positioned at pc, reusing
	// free's storage when free is a compatible retired wrong-path source
	// (nil or an incompatible free forces a fresh allocation). The oracle
	// itself is unaffected.
	ForkWrong(free Source, pc isa.Addr) Source
	// RestoreSource overwrites the oracle's position and stream state
	// from a captured state of the same kind.
	RestoreSource(st checkpoint.SourceState) error
	// RestoreWrong rebuilds a wrong-path source from its captured state
	// (wrong paths carry no reconstruction input of their own — the
	// oracle supplies it).
	RestoreWrong(st checkpoint.SourceState) (Source, error)
}

// Compile-time conformance: the CFG walker is the reference source.
var _ OracleSource = (*Walker)(nil)

// CaptureSource implements Source.
func (w *Walker) CaptureSource() checkpoint.SourceState {
	st := w.CaptureCheckpoint()
	return checkpoint.SourceState{Kind: checkpoint.SourceCFG, Walker: &st}
}

// RestoreSource implements OracleSource.
func (w *Walker) RestoreSource(st checkpoint.SourceState) error {
	if st.Kind != checkpoint.SourceCFG || st.Walker == nil {
		return fmt.Errorf("trace: cannot restore a %q source into a CFG walker", st.Kind)
	}
	return w.RestoreCheckpoint(*st.Walker)
}

// ForkWrong implements OracleSource: it forks a wrong-path walker at pc,
// recycling free's storage when free is itself a walker (ForkInto
// reproduces Fork's stream exactly).
func (w *Walker) ForkWrong(free Source, pc isa.Addr) Source {
	dst, _ := free.(*Walker)
	return w.ForkInto(dst, pc)
}

// RestoreWrong implements OracleSource: wrong paths of a CFG oracle are
// walkers over the same program.
func (w *Walker) RestoreWrong(st checkpoint.SourceState) (Source, error) {
	if st.Kind != checkpoint.SourceCFG || st.Walker == nil {
		return nil, fmt.Errorf("trace: cannot restore a %q wrong path under a CFG oracle", st.Kind)
	}
	return NewFromCheckpoint(w.prog, *st.Walker)
}
