package pdip

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/prefetch"
)

// CaptureCheckpoint implements prefetch.Checkpointer: the full
// trigger→target table (tags, LRU stamps, target slots with masks), the
// replacement clock, the insertion-coin rng, and the stats.
func (p *PDIP) CaptureCheckpoint() checkpoint.PrefetcherState {
	return checkpoint.PrefetcherState{Kind: "pdip", PDIP: &checkpoint.PDIPState{
		Entries: append([]checkpoint.PDIPEntryState(nil), p.entries...),
		Targets: append([]checkpoint.PDIPTargetState(nil), p.targets...),
		Tick:    p.tick,
		Rng:     p.r.State(),
		Stats:   p.Stats,
	}}
}

// RestoreCheckpoint implements prefetch.Checkpointer. The receiver must
// have been built with the same table geometry.
func (p *PDIP) RestoreCheckpoint(st checkpoint.PrefetcherState) error {
	if st.Kind != "pdip" || st.PDIP == nil {
		return fmt.Errorf("pdip: checkpoint kind %q, prefetcher is pdip", st.Kind)
	}
	s := st.PDIP
	if len(s.Entries) != len(p.entries) || len(s.Targets) != len(p.targets) {
		return fmt.Errorf("pdip: checkpoint has %d entries and %d targets, table has %d×%d×%d",
			len(s.Entries), len(s.Targets), p.cfg.Sets, p.cfg.Ways, p.cfg.TargetsPerEntry)
	}
	for _, t := range s.Targets {
		if err := prefetch.CheckTrigger(t.Trig); err != nil {
			return fmt.Errorf("pdip: checkpoint target: %w", err)
		}
	}
	copy(p.entries, s.Entries)
	copy(p.targets, s.Targets)
	p.tick = s.Tick
	p.r.SetState(s.Rng)
	p.Stats = s.Stats
	return nil
}
