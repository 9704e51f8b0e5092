package core

import (
	"pdip/internal/frontend"
	"pdip/internal/invariant"
	"pdip/internal/isa"
	"pdip/internal/mem"
	"pdip/internal/pipeline"
)

// dataBase places the synthetic data region far from code.
const dataBase isa.Addr = 0x10_0000_0000

// fetchStage is the IFU: it pops ready FTQ entries, issues demand fetch
// messages for every line (creating the fetch episodes the FEC machinery
// tracks), and delivers decoded uops into the fetch→decode latch. The
// stage iterates FetchWidth times per cycle.
type fetchStage struct {
	co *Core
}

// Name implements pipeline.Stage.
func (s *fetchStage) Name() string { return "fetch" }

// Tick implements pipeline.Stage.
//
//lint:hotpath
func (s *fetchStage) Tick(now int64) {
	width := s.co.cfg.FetchWidth
	if width <= 0 {
		width = 1
	}
	for i := 0; i < width; i++ {
		s.fetchOne(now)
	}
}

func (s *fetchStage) fetchOne(now int64) {
	co := s.co
	// Start a new entry when idle.
	if co.ifuEntry == nil {
		e := co.ftq.Pop()
		if e == nil {
			return
		}
		s.startFetch(e, now)
	}
	e := co.ifuEntry
	if now < e.ReadyAt {
		return
	}
	// Respect the decode-buffer bound.
	if co.decodeQ.Len()+len(e.Insts) > co.cfg.DecodeQDepth {
		return
	}
	s.deliver(e, now)
	co.ifuEntry = nil
	// The entry is fully drained: release the episodes no uop mapped to
	// (spill lines whose instructions all started on the previous line) and
	// recycle the entry's storage.
	for _, ep := range e.Episodes {
		if ep.Refs == 0 {
			co.releaseEpisode(ep)
		}
	}
	co.iag.Recycle(e)
}

// NextEventAt implements pipeline.Sleeper. The IFU's next event is the
// blocking entry's ReadyAt; with no entry in flight it acts the next cycle
// when the FTQ holds work, and otherwise sleeps until another stage's
// event (a predict-stage insert) precedes any fetch. An entry blocked on
// decode-buffer depth likewise waits on decode's own bound.
func (s *fetchStage) NextEventAt(now int64) int64 {
	co := s.co
	e := co.ifuEntry
	if e == nil {
		if co.ftq.Len() > 0 {
			return now + 1
		}
		return pipeline.Never
	}
	if now < e.ReadyAt {
		return e.ReadyAt
	}
	return pipeline.Never
}

// startFetch issues demand-fetch messages for every line of the entry and
// creates the fetch episodes the FEC machinery tracks.
func (s *fetchStage) startFetch(e *frontend.FTQEntry, now int64) {
	co := s.co
	ready := now
	e.Episodes = e.Episodes[:0]
	for _, line := range e.Lines {
		//lint:ignore allocfree inlined pool refill (core/pool.go newEpisode); amortized once the free list warms
		ep := co.newEpisode()
		ep.Line = line
		ep.WrongPath = e.WrongPath
		ep.FetchCycle = now
		ep.ResteerTrigger = e.ShadowTrigger
		ep.ResteerWasReturn = e.ShadowWasReturn
		if co.cfg.FECIdeal && co.isFECEver(line) {
			// FEC-Ideal: FEC-qualified lines always arrive with L1I hit
			// latency (§3's ceiling).
			ep.DoneCycle = now
		} else {
			res := co.iport.Send(mem.Req{
				Op:       mem.OpFetch,
				Line:     line,
				At:       now,
				Priority: co.priorityOf(line),
			})
			// A line still in flight at demand time (partial hit) is a
			// miss the FTQ prefetch could not fully hide — exactly the
			// class the FEC conditions are about (§2.1).
			ep.Missed = !res.L1Hit || res.WasInflight
			ep.WasPrefetch = res.WasPrefetch
			ep.ServedBy = res.ServedBy
			if res.L1Hit && !res.WasInflight {
				// Pipelined hit: latency folded into DecodePipeLat.
				ep.DoneCycle = now
			} else {
				ep.DoneCycle = res.Done
			}
		}
		if invariant.Enabled && ep.DoneCycle < now {
			invariant.Failf("fetch: line %#x completes at %d, before its demand issue at %d",
				uint64(line), ep.DoneCycle, now)
		}
		e.Episodes = append(e.Episodes, ep)
		if ep.DoneCycle > ready {
			ready = ep.DoneCycle
		}
	}
	e.ReadyAt = ready
	co.ifuEntry = e
}

// deliver converts the fetched entry's instructions into uops and pushes
// them into the fetch→decode latch.
func (s *fetchStage) deliver(e *frontend.FTQEntry, now int64) {
	co := s.co
	avail := now + int64(co.cfg.DecodePipeLat)
	epFor := func(pc isa.Addr) *frontend.LineEpisode {
		ln := pc.Line()
		for _, ep := range e.Episodes {
			if ep.Line == ln {
				return ep
			}
		}
		return e.Episodes[0]
	}
	for i := range e.Insts {
		in := e.Insts[i]
		co.seq++
		//lint:ignore allocfree inlined pool refill (core/pool.go newUop); amortized once the free list warms
		u := co.newUop()
		u.Inst = in
		u.Seq = co.seq
		u.WrongPath = e.WrongPath
		u.Ep = epFor(in.PC)
		u.AvailableAt = avail
		u.Ep.Refs++
		if in.Kind == isa.NotBranch && co.dataRng.Bool(co.cfg.MemOpFrac) {
			u.IsMemOp = true
			u.DataLine = co.genDataLine()
		}
		if e.Mispredict && i == len(e.Insts)-1 {
			u.Mispredict = true
			u.ResolveAtDecode = e.ResolveAtDecode
			u.Cause = e.Cause
			u.CorrectTarget = e.CorrectTarget
			// The PDIP trigger key is the block (line) address of the
			// trigger *instruction* (SS5.1) - stable across occurrences,
			// unlike FTQ-entry boundaries, which depend on which of the
			// preceding branches happened to be taken.
			u.TriggerBlock = in.PC.Line()
		}
		co.decodeQ.Push(u)
	}
}

// genDataLine draws from the workload's synthetic data-address stream.
func (co *Core) genDataLine() isa.Addr {
	hot := co.cfg.DataHotLines
	cold := co.cfg.DataColdLines
	if hot <= 0 {
		hot = 1
	}
	if cold <= 0 {
		cold = 1
	}
	var idx int
	if co.dataRng.Bool(co.cfg.DataHotFrac) {
		idx = co.dataRng.Intn(hot)
	} else {
		idx = hot + co.dataRng.Intn(cold)
	}
	return dataBase + isa.Addr(idx*isa.LineSize)
}
