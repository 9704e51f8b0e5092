package rdip

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

// CaptureCheckpoint implements prefetch.Checkpointer: the signature
// table, the private RAS mirror and current context signature, pending
// retire-time requests, and the stats.
func (r *RDIP) CaptureCheckpoint() checkpoint.PrefetcherState {
	st := &checkpoint.RDIPState{
		Sets:    make([][]checkpoint.RDIPEntryState, len(r.sets)),
		Tick:    r.tick,
		RAS:     append([]isa.Addr(nil), r.ras...),
		Sig:     r.sig,
		Pending: append([]prefetch.Request(nil), r.pending...),
		Stats:   r.Stats,
	}
	for si := range r.sets {
		ws := append([]checkpoint.RDIPEntryState(nil), r.sets[si]...)
		for wi := range ws {
			ws[wi].Lines = append([]isa.Addr(nil), ws[wi].Lines...)
		}
		st.Sets[si] = ws
	}
	return checkpoint.PrefetcherState{Kind: "rdip", RDIP: st}
}

// RestoreCheckpoint implements prefetch.Checkpointer. The receiver must
// have been built with the same table geometry.
func (r *RDIP) RestoreCheckpoint(st checkpoint.PrefetcherState) error {
	if st.Kind != "rdip" || st.RDIP == nil {
		return fmt.Errorf("rdip: checkpoint kind %q, prefetcher is rdip", st.Kind)
	}
	s := st.RDIP
	if len(s.Sets) != len(r.sets) {
		return fmt.Errorf("rdip: checkpoint has %d sets, table has %d", len(s.Sets), len(r.sets))
	}
	for si, ws := range s.Sets {
		if len(ws) != len(r.sets[si]) {
			return fmt.Errorf("rdip: checkpoint set %d has %d ways, table has %d", si, len(ws), len(r.sets[si]))
		}
	}
	if err := prefetch.CheckRequests(s.Pending); err != nil {
		return err
	}
	for si, ws := range s.Sets {
		for wi := range ws {
			lines := append(r.sets[si][wi].Lines[:0], ws[wi].Lines...)
			r.sets[si][wi] = ws[wi]
			r.sets[si][wi].Lines = lines
		}
	}
	r.tick = s.Tick
	r.ras = append(r.ras[:0], s.RAS...)
	r.sig = s.Sig
	r.pending = append(r.pending[:0], s.Pending...)
	r.Stats = s.Stats
	return nil
}
