package pdip

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/prefetch"
)

// CaptureCheckpoint implements prefetch.Checkpointer: the full
// trigger→target table (tags, LRU stamps, target slots with masks), the
// replacement clock, the insertion-coin rng, and the stats. The debug
// hooks (debugInserted, DebugLog) are diagnostics, not simulated state.
func (p *PDIP) CaptureCheckpoint() checkpoint.PrefetcherState {
	entries := p.cfg.Sets * p.cfg.Ways
	st := &checkpoint.PDIPState{
		Entries: make([]checkpoint.PDIPEntryState, 0, entries),
		Targets: make([]checkpoint.PDIPTargetState, 0, entries*p.cfg.TargetsPerEntry),
		Tick:    p.tick,
		Rng:     p.r.State(),
		Stats:   checkpoint.PDIPStats(p.Stats),
	}
	for _, set := range p.sets {
		for _, e := range set {
			st.Entries = append(st.Entries, checkpoint.PDIPEntryState{Valid: e.valid, Tag: e.tag, LRU: e.lru})
			for _, t := range e.targets {
				st.Targets = append(st.Targets, checkpoint.PDIPTargetState{
					Valid: t.valid, Base: t.base, Mask: t.mask, Trig: uint8(t.trig), LRU: t.lru,
				})
			}
		}
	}
	return checkpoint.PrefetcherState{Kind: "pdip", PDIP: st}
}

// RestoreCheckpoint implements prefetch.Checkpointer. The receiver must
// have been built with the same table geometry.
func (p *PDIP) RestoreCheckpoint(st checkpoint.PrefetcherState) error {
	if st.Kind != "pdip" || st.PDIP == nil {
		return fmt.Errorf("pdip: checkpoint kind %q, prefetcher is pdip", st.Kind)
	}
	s := st.PDIP
	entries := p.cfg.Sets * p.cfg.Ways
	if len(s.Entries) != entries || len(s.Targets) != entries*p.cfg.TargetsPerEntry {
		return fmt.Errorf("pdip: checkpoint has %d entries and %d targets, table has %d×%d×%d",
			len(s.Entries), len(s.Targets), p.cfg.Sets, p.cfg.Ways, p.cfg.TargetsPerEntry)
	}
	ei, ti := 0, 0
	for _, set := range p.sets {
		for wi := range set {
			e, es := &set[wi], s.Entries[ei]
			ei++
			e.valid = es.Valid
			e.tag = es.Tag
			e.lru = es.LRU
			for k := range e.targets {
				ts := s.Targets[ti]
				ti++
				e.targets[k] = target{
					valid: ts.Valid, base: ts.Base, mask: ts.Mask,
					trig: prefetch.TriggerKind(ts.Trig), lru: ts.LRU,
				}
			}
		}
	}
	p.tick = s.Tick
	p.r.SetState(s.Rng)
	p.Stats = Stats(s.Stats)
	return nil
}
