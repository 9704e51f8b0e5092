package eip

import (
	"fmt"
	"sort"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// CaptureCheckpoint implements prefetch.Checkpointer: the commit-order
// history ring, the bounded entangling table or the analytical unbounded
// map (key-sorted — checkpoint bytes must not depend on Go map iteration
// order), and the stats.
func (e *EIP) CaptureCheckpoint() checkpoint.PrefetcherState {
	st := &checkpoint.EIPState{
		Hist:  append([]checkpoint.EIPHistEntry(nil), e.hist...),
		Head:  e.head,
		Size:  e.size,
		Tick:  e.tick,
		Stats: e.Stats,
	}
	if e.sets != nil {
		st.Sets = make([][]checkpoint.EIPEntryState, len(e.sets))
		for si := range e.sets {
			ws := append([]checkpoint.EIPEntryState(nil), e.sets[si]...)
			for wi := range ws {
				ws[wi].Dsts = append([]isa.Addr(nil), ws[wi].Dsts...)
			}
			st.Sets[si] = ws
		}
	}
	if e.anal != nil {
		srcs := make([]isa.Addr, 0, len(e.anal))
		for src := range e.anal {
			srcs = append(srcs, src)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		st.Anal = make([]checkpoint.EIPAnalEntry, 0, len(srcs))
		for _, src := range srcs {
			st.Anal = append(st.Anal, checkpoint.EIPAnalEntry{
				Src:  src,
				Dsts: append([]isa.Addr(nil), e.anal[src]...),
			})
		}
	}
	return checkpoint.PrefetcherState{Kind: "eip", EIP: st}
}

// RestoreCheckpoint implements prefetch.Checkpointer. The receiver must
// have been built with the same configuration (history depth, table
// geometry, bounded vs analytical mode).
func (e *EIP) RestoreCheckpoint(st checkpoint.PrefetcherState) error {
	if st.Kind != "eip" || st.EIP == nil {
		return fmt.Errorf("eip: checkpoint kind %q, prefetcher is eip", st.Kind)
	}
	s := st.EIP
	if len(s.Hist) != len(e.hist) {
		return fmt.Errorf("eip: checkpoint history depth %d, prefetcher has %d", len(s.Hist), len(e.hist))
	}
	if s.Head < 0 || s.Head >= len(e.hist) || s.Size < 0 || s.Size > len(e.hist) {
		return fmt.Errorf("eip: checkpoint history head %d / size %d outside a %d-entry ring", s.Head, s.Size, len(e.hist))
	}
	if (s.Sets != nil) != (e.sets != nil) || len(s.Sets) != len(e.sets) {
		return fmt.Errorf("eip: checkpoint has %d table sets, prefetcher has %d", len(s.Sets), len(e.sets))
	}
	if (s.Anal != nil) && e.anal == nil {
		return fmt.Errorf("eip: checkpoint is analytical, prefetcher is bounded")
	}
	for si, ws := range s.Sets {
		if len(ws) != len(e.sets[si]) {
			return fmt.Errorf("eip: checkpoint set %d has %d ways, prefetcher has %d", si, len(ws), len(e.sets[si]))
		}
	}
	copy(e.hist, s.Hist)
	e.head = s.Head
	e.size = s.Size
	for si, ws := range s.Sets {
		for wi := range ws {
			dsts := append(e.sets[si][wi].Dsts[:0], ws[wi].Dsts...)
			e.sets[si][wi] = ws[wi]
			e.sets[si][wi].Dsts = dsts
		}
	}
	if e.anal != nil {
		clear(e.anal)
		for _, a := range s.Anal {
			e.anal[a.Src] = append([]isa.Addr(nil), a.Dsts...)
		}
	}
	e.tick = s.Tick
	e.Stats = s.Stats
	return nil
}
