package core

import (
	"pdip/internal/frontend"
	"pdip/internal/invariant"
	"pdip/internal/pipeline"
)

// resteerStage applies the single pending front-end redirect once its
// resolution cycle arrives: classify it, flush speculative front-end
// state, squash wrong-path work, and open the resteer shadow window the
// FEC trigger association relies on (§4.2). It owns the
// frontend.resteer.* counters.
type resteerStage struct {
	co *Core
}

// Name implements pipeline.Stage.
func (s *resteerStage) Name() string { return "resteer" }

// Tick implements pipeline.Stage.
//
//lint:hotpath
func (s *resteerStage) Tick(now int64) {
	co := s.co
	if !co.hasResteer || now < co.pendingResteer.At {
		return
	}
	ev := co.pendingResteer
	co.hasResteer = false

	ct := &co.stats.ResteerCounters
	switch ev.Cause {
	case frontend.ResteerBTBMiss:
		ct.ResteerBTBMiss++
	case frontend.ResteerReturn:
		ct.ResteerReturn++
	default:
		ct.ResteerMispredict++
	}

	// Flush speculative front-end state, recycling the flushed entries
	// (none has episodes: episodes only exist once an entry leaves the FTQ
	// for the IFU). The PQ is intentionally not flushed: its entries are
	// prefetch hints, not control flow.
	for e := co.ftq.Pop(); e != nil; e = co.ftq.Pop() {
		co.iag.Recycle(e)
	}
	if invariant.Enabled && co.ftq.Len() != 0 {
		invariant.Failf("resteer: FTQ holds %d entries after flush", co.ftq.Len())
	}
	if e := co.ifuEntry; e != nil && e.WrongPath {
		// Not yet delivered, so no uop references its episodes.
		for _, ep := range e.Episodes {
			co.releaseEpisode(ep)
		}
		co.iag.Recycle(e)
		co.ifuEntry = nil
	}
	// Drop wrong-path uops from the fetch→decode latch and the ROB,
	// recycling their storage.
	co.decodeQ.Filter(func(u *frontend.Uop) bool {
		if u.WrongPath {
			co.releaseUop(u)
			return false
		}
		return true
	})
	co.rob.SquashWrongPath(co.releaseUop)

	co.iag.Resteer()
	co.iagResumeAt = now + int64(co.cfg.ResteerPenalty)

	co.shadowTrigger = ev.Trigger
	co.shadowWasReturn = ev.Cause == frontend.ResteerReturn
	co.shadowLeft = co.cfg.ResteerShadowBlocks
}

// NextEventAt implements pipeline.Sleeper: the stage acts only at the
// pending redirect's resolution cycle.
func (s *resteerStage) NextEventAt(now int64) int64 {
	co := s.co
	if !co.hasResteer {
		return pipeline.Never
	}
	if co.pendingResteer.At <= now {
		return now + 1
	}
	return co.pendingResteer.At
}
