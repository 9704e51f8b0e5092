package core

import (
	"pdip/internal/invariant"
	"pdip/internal/pipeline"
)

// prefetchDrainStage moves retire-time prefetch requests (next-line,
// RDIP, FNL+MMA style prefetchers) into the PQ, then drains the PQ into
// the instruction port as OpPrefetch messages — the last stage of the
// cycle, so prefetches issued this cycle see the post-fetch MSHR state,
// matching the paper's demand-first discipline.
type prefetchDrainStage struct {
	co *Core
	// lastTick asserts the driver's clock is strictly monotonic across
	// this (final) stage when invariants are armed.
	lastTick int64
}

// Name implements pipeline.Stage.
func (s *prefetchDrainStage) Name() string { return "prefetch-drain" }

// Tick implements pipeline.Stage.
//
//lint:hotpath
func (s *prefetchDrainStage) Tick(now int64) {
	co := s.co
	if invariant.Enabled {
		if s.lastTick != 0 && now <= s.lastTick {
			invariant.Failf("prefetch-drain: tick at cycle %d not after previous tick at %d", now, s.lastTick)
		}
		s.lastTick = now
	}
	s.drainRetireEmitter(now)
	co.pq.Drain(co.iport, now, co.priorityOf)
}

// NextEventAt implements pipeline.Sleeper. A non-empty PQ drains every
// cycle; an empty one only receives work from retires and FTQ inserts,
// both of which are other stages' events (and the retire emitter's pending
// buffer is always drained within the same Tick it was filled, so it is
// empty between cycles).
func (s *prefetchDrainStage) NextEventAt(now int64) int64 {
	if s.co.pq.Len() > 0 {
		return now + 1
	}
	return pipeline.Never
}

// drainRetireEmitter collects pending retire-time requests from the
// prefetcher, applying the same FTQ duplicate suppression as the
// FTQ-insert path.
func (s *prefetchDrainStage) drainRetireEmitter(now int64) {
	co := s.co
	if co.pfEmitter == nil {
		return
	}
	co.reqBuf = co.pfEmitter.TakePending(co.reqBuf[:0])
	for _, r := range co.reqBuf {
		if co.ftq.Contains(r.Line) {
			co.stats.PFDroppedFTQ++
			continue
		}
		if co.pfSet != nil {
			co.pfSet[r.Line] = now
		}
		co.pq.Enqueue(r)
	}
}
