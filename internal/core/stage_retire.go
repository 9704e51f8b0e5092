package core

import (
	"pdip/internal/frontend"
	"pdip/internal/invariant"
	"pdip/internal/isa"
	"pdip/internal/metrics"
	"pdip/internal/pipeline"
	"pdip/internal/prefetch"
)

// retireStage drains completed uops from the ROB in order, up to the
// retire width, and runs the retire-time machinery: FEC evaluation of
// line episodes (fec.go), EMISSARY promotion, prefetcher notification,
// and call/return tracking. It owns the core.* retire counters.
type retireStage struct {
	co *Core
}

// Name implements pipeline.Stage.
func (s *retireStage) Name() string { return "retire" }

// Tick implements pipeline.Stage.
//
//lint:hotpath
func (s *retireStage) Tick(now int64) {
	co := s.co
	co.retireBuf = co.rob.Retire(now, co.cfg.RetireWidth, co.retireBuf[:0])
	for _, u := range co.retireBuf {
		s.retireUop(u)
		co.releaseUop(u)
	}
}

// NextEventAt implements pipeline.Sleeper: retirement next acts when the
// ROB head's execution completes (or immediately, when this cycle's
// retire was width-capped with the head already done). An empty ROB
// sleeps until decode pushes — decode's own bound covers that.
func (s *retireStage) NextEventAt(now int64) int64 {
	u := s.co.rob.Head()
	if u == nil {
		return pipeline.Never
	}
	if u.DoneAt <= now {
		return now + 1
	}
	return u.DoneAt
}

func (s *retireStage) retireUop(u *frontend.Uop) {
	co := s.co
	ct := &co.stats.RetireCounters
	co.retired++
	ct.Instructions++
	if co.sampleEvery > 0 {
		if n := ct.Instructions; n%co.sampleEvery == 0 {
			s := metrics.Sample{Instructions: n, Metrics: co.reg.Snapshot()}
			co.samples = append(co.samples, s)
			if co.sampleHook != nil {
				co.sampleHook(s)
			}
		}
	}

	if ep := u.Ep; ep != nil && !ep.Processed {
		ep.Processed = true
		s.processEpisode(ep)
	}
	if u.Inst.Kind.IsBranch() && u.Inst.Taken {
		co.lastTakenBlock = u.Inst.PC.Line()
	}
	if co.pfCallsRet != nil {
		if u.Inst.Kind.IsCall() {
			co.pfCallsRet.OnCallReturn(true, u.Inst.PC, u.Inst.FallThrough())
		} else if u.Inst.Kind == isa.Return {
			co.pfCallsRet.OnCallReturn(false, u.Inst.PC, 0)
		}
	}
}

// processEpisode evaluates the FEC conditions for a retired line episode
// and feeds EMISSARY promotion and the prefetcher (§2.1, §4.1, §4.2).
func (s *retireStage) processEpisode(ep *frontend.LineEpisode) {
	co := s.co
	ct := &co.stats.RetireCounters
	if invariant.Enabled && ep.DoneCycle < ep.FetchCycle {
		invariant.Failf("retire: episode for line %#x completes at %d, before its fetch at %d",
			uint64(ep.Line), ep.DoneCycle, ep.FetchCycle)
	}
	ct.LinesRetired++
	fec := ep.Missed && ep.Starve > 0
	highCost := fec && ep.Starve > co.cfg.HighCostThreshold

	if ep.WasPrefetch && ep.ResteerTrigger != 0 && !fec {
		ct.ShadowCovered++
	}
	if fec {
		co.recordFECDiagnostics(ep)
		ct.FECLines++
		if ep.WasPrefetch {
			ct.FECCoveredLate++
		}
		if _, seen := co.fecEver[ep.Line]; seen {
			ct.FECRepeatLines++
		}
		ct.FECStallCycles += uint64(ep.Starve)
		if highCost {
			ct.HighCostFECLines++
			if ep.BackendEmpty {
				ct.HighCostBackend++
			}
		}
		co.fecEver[ep.Line] = struct{}{}
		if (co.cfg.Emissary || co.cfg.FECIdeal) && co.promoRng.Bool(co.cfg.EmissaryPromoteProb) {
			co.promoted[ep.Line] = struct{}{}
			co.hier.PromoteInstLine(ep.Line)
		}
	} else if ep.Starve > 0 {
		ct.NonFECStall += uint64(ep.Starve)
	}

	co.pf.OnLineRetired(prefetch.RetireEvent{
		Line:             ep.Line,
		Missed:           ep.Missed,
		ServedBy:         ep.ServedBy,
		FetchCycle:       ep.FetchCycle,
		FetchLatency:     ep.DoneCycle - ep.FetchCycle,
		StarveCycles:     ep.Starve,
		BackendEmpty:     ep.BackendEmpty,
		FEC:              fec,
		HighCost:         highCost,
		ResteerTrigger:   ep.ResteerTrigger,
		ResteerWasReturn: ep.ResteerWasReturn,
		LastTakenBlock:   co.lastTakenBlock,
	})
}
