package prefetch

import (
	"fmt"

	"pdip/internal/checkpoint"
)

// Checkpointer is the optional Prefetcher extension for warm-state
// checkpointing. Every shipped prefetcher implements it; the core refuses
// to snapshot a prefetcher that does not, so a new implementation cannot
// silently opt out of checkpoint coverage.
type Checkpointer interface {
	// CaptureCheckpoint captures the prefetcher's full training state.
	CaptureCheckpoint() checkpoint.PrefetcherState
	// RestoreCheckpoint overwrites the prefetcher's state from a capture.
	// The state's Kind must match the implementation.
	RestoreCheckpoint(checkpoint.PrefetcherState) error
}

// CheckTrigger rejects a captured trigger class the PQ cannot account:
// Stats.ByTrigger has one slot per TriggerKind.
func CheckTrigger(k TriggerKind) error {
	if int(k) >= len(Stats{}.ByTrigger) {
		return fmt.Errorf("trigger kind %d outside 0..%d", k, len(Stats{}.ByTrigger)-1)
	}
	return nil
}

// CheckRequests rejects captured requests whose trigger class the PQ
// cannot account.
func CheckRequests(reqs []Request) error {
	for _, r := range reqs {
		if err := CheckTrigger(r.Trigger); err != nil {
			return fmt.Errorf("prefetch: checkpoint request: %w", err)
		}
	}
	return nil
}

// CaptureCheckpoint captures the queued requests oldest-first and the
// issue stats. The issue-policy knobs (ReserveMSHRs, IssuePerCycle,
// ZeroCost) are configuration set by the core at construction, not
// simulated state.
func (q *Queue) CaptureCheckpoint() checkpoint.QueueState {
	st := checkpoint.QueueState{
		Entries: make([]Request, q.count),
		Stats:   q.Stats,
	}
	for i := range st.Entries {
		st.Entries[i] = q.entries[(q.head+i)%len(q.entries)]
	}
	return st
}

// RestoreCheckpoint replaces the queue's contents with the captured
// requests, rebuilding the ring at head 0.
func (q *Queue) RestoreCheckpoint(st checkpoint.QueueState) error {
	if len(st.Entries) > len(q.entries) {
		return fmt.Errorf("prefetch: checkpoint has %d PQ entries, capacity is %d", len(st.Entries), len(q.entries))
	}
	if err := CheckRequests(st.Entries); err != nil {
		return err
	}
	q.head = 0
	q.count = copy(q.entries, st.Entries)
	q.Stats = st.Stats
	return nil
}

// CaptureCheckpoint implements Checkpointer: the baseline prefetcher has
// no state.
func (None) CaptureCheckpoint() checkpoint.PrefetcherState {
	return checkpoint.PrefetcherState{Kind: "none"}
}

// RestoreCheckpoint implements Checkpointer.
func (None) RestoreCheckpoint(st checkpoint.PrefetcherState) error {
	if st.Kind != "none" {
		return fmt.Errorf("prefetch: checkpoint kind %q, prefetcher is none", st.Kind)
	}
	return nil
}

// CaptureCheckpoint implements Checkpointer.
func (n *NextLine) CaptureCheckpoint() checkpoint.PrefetcherState {
	return checkpoint.PrefetcherState{
		Kind: "nextline",
		NextLine: &checkpoint.NextLineState{
			Degree:  n.Degree,
			Pending: append([]Request(nil), n.pending...),
		},
	}
}

// RestoreCheckpoint implements Checkpointer.
func (n *NextLine) RestoreCheckpoint(st checkpoint.PrefetcherState) error {
	if st.Kind != "nextline" || st.NextLine == nil {
		return fmt.Errorf("prefetch: checkpoint kind %q, prefetcher is nextline", st.Kind)
	}
	if st.NextLine.Degree != n.Degree {
		return fmt.Errorf("prefetch: checkpoint nextline degree %d, prefetcher has %d", st.NextLine.Degree, n.Degree)
	}
	if err := CheckRequests(st.NextLine.Pending); err != nil {
		return err
	}
	n.pending = append(n.pending[:0], st.NextLine.Pending...)
	return nil
}
