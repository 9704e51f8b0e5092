package core

import (
	"pdip/internal/invariant"
	"pdip/internal/mem"
	"pdip/internal/pipeline"
)

// predictStage runs the IAG: assemble the next predicted basic block,
// enqueue it in the FTQ, send the FDIP prime messages for its lines, and
// consult the prefetcher (PDIP table lookup happens once per new FTQ
// entry, §4.2). The stage iterates IAGWidth times per cycle — Golden
// Cove-class front-ends predict two blocks per cycle, and without
// prediction bandwidth above the fetch drain rate the FTQ could never
// refill after a flush.
type predictStage struct {
	co *Core
}

// Name implements pipeline.Stage.
func (s *predictStage) Name() string { return "predict" }

// Tick implements pipeline.Stage.
//
//lint:hotpath
func (s *predictStage) Tick(now int64) {
	width := s.co.cfg.IAGWidth
	if width <= 0 {
		width = 1
	}
	for i := 0; i < width; i++ {
		s.predictOne(now)
	}
}

// NextEventAt implements pipeline.Sleeper: the IAG produces a block every
// cycle it is neither blocked by a full FTQ (a fetch-stage pop is the
// wake-up) nor inside the post-resteer redirect bubble.
func (s *predictStage) NextEventAt(now int64) int64 {
	co := s.co
	if co.ftq.Full() {
		return pipeline.Never
	}
	if co.iagResumeAt > now+1 {
		return co.iagResumeAt
	}
	return now + 1
}

func (s *predictStage) predictOne(now int64) {
	co := s.co
	if co.ftq.Full() || now < co.iagResumeAt {
		return
	}
	e := co.iag.NextEntry()
	if invariant.Enabled && len(e.Lines) == 0 {
		invariant.Failf("predict: IAG produced an FTQ entry with no lines at cycle %d", now)
	}

	if !e.WrongPath && co.shadowLeft > 0 {
		e.ShadowTrigger = co.shadowTrigger
		e.ShadowWasReturn = co.shadowWasReturn
		co.shadowLeft--
	}

	co.ftq.Push(e)

	// FDIP prefetch: FTQ entries directly prime the L1I (§2.1). One MSHR
	// is reserved so demand fetches are never fully locked out.
	if !co.cfg.DisableFDIPPrefetch {
		for _, line := range e.Lines {
			co.iport.Send(mem.Req{
				Op:       mem.OpPrime,
				Line:     line,
				At:       now,
				Reserve:  1,
				Priority: co.priorityOf(line),
			})
		}
	}

	// Prefetcher consultation, one probe per distinct line of the entry
	// (the entry's block address, plus spill lines for spanning blocks).
	co.reqBuf = co.reqBuf[:0]
	for _, line := range e.Lines {
		co.reqBuf = co.pf.OnFTQInsert(line, co.reqBuf)
	}
	for _, r := range co.reqBuf {
		// Duplicate suppression against the FTQ (§6.2).
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
