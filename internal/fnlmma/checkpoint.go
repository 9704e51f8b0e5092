package fnlmma

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

// CaptureCheckpoint implements prefetch.Checkpointer: the footprint worth
// bits, the miss-ahead table, the miss ring, pending retire-time
// requests, and the stats.
func (f *FNLMMA) CaptureCheckpoint() checkpoint.PrefetcherState {
	return checkpoint.PrefetcherState{
		Kind: "fnlmma",
		FNLMMA: &checkpoint.FNLMMAState{
			Worth:    append([]uint8(nil), f.worth...),
			MMATag:   append([]uint32(nil), f.mmaTag...),
			MMADst:   append([]isa.Addr(nil), f.mmaDst...),
			MissRing: append([]isa.Addr(nil), f.missRing...),
			MissHead: f.missHead,
			Pending:  prefetch.CaptureRequests(f.pending),
			Stats:    f.Stats,
		},
	}
}

// RestoreCheckpoint implements prefetch.Checkpointer. The receiver must
// have been built with the same table sizes.
func (f *FNLMMA) RestoreCheckpoint(st checkpoint.PrefetcherState) error {
	if st.Kind != "fnlmma" || st.FNLMMA == nil {
		return fmt.Errorf("fnlmma: checkpoint kind %q, prefetcher is fnlmma", st.Kind)
	}
	s := st.FNLMMA
	if len(s.Worth) != len(f.worth) || len(s.MMATag) != len(f.mmaTag) ||
		len(s.MMADst) != len(f.mmaDst) || len(s.MissRing) != len(f.missRing) {
		return fmt.Errorf("fnlmma: checkpoint table sizes (%d,%d,%d,%d) do not match prefetcher (%d,%d,%d,%d)",
			len(s.Worth), len(s.MMATag), len(s.MMADst), len(s.MissRing),
			len(f.worth), len(f.mmaTag), len(f.mmaDst), len(f.missRing))
	}
	if s.MissHead < 0 || s.MissHead >= len(f.missRing) {
		return fmt.Errorf("fnlmma: checkpoint miss-ring head %d outside 0..%d", s.MissHead, len(f.missRing)-1)
	}
	pending, err := prefetch.RestoreRequests(f.pending[:0], s.Pending)
	if err != nil {
		return err
	}
	copy(f.worth, s.Worth)
	copy(f.mmaTag, s.MMATag)
	copy(f.mmaDst, s.MMADst)
	copy(f.missRing, s.MissRing)
	f.missHead = s.MissHead
	f.pending = pending
	f.Stats = s.Stats
	return nil
}
