package core

import (
	"pdip/internal/checkpoint"
	"pdip/internal/frontend"
	"pdip/internal/invariant"
	"pdip/internal/mem"
	"pdip/internal/pipeline"
)

// decodeStage moves uops from the fetch→decode latch into the ROB, up to
// the decode width, performing allocation work on the way: execution
// latency assignment, data-side memory access messages, and resteer
// scheduling for mispredicted branches. It also does the top-down
// issue-slot accounting and decode-starvation attribution (Figure 1).
// It owns the frontend.starve.* and core.topdown.* counters.
type decodeStage struct {
	co *Core
	// lastSeq tracks uop sequence numbers to assert the fetch→decode
	// latch delivers in program order when invariants are armed.
	lastSeq uint64
}

// Name implements pipeline.Stage.
func (s *decodeStage) Name() string { return "decode" }

// Tick implements pipeline.Stage.
//
//lint:hotpath
func (s *decodeStage) Tick(now int64) {
	co := s.co
	ct := &co.ct.decode
	width := co.cfg.DecodeWidth
	moved := 0
	robFull := false
	for moved < width {
		if co.rob.Full() {
			robFull = true
			break
		}
		u, ok := co.decodeQ.Peek()
		if !ok || u.AvailableAt > now {
			break
		}
		co.decodeQ.Pop()
		if invariant.Enabled {
			if u.Seq <= s.lastSeq {
				invariant.Failf("decode: uop seq %d not after previously decoded seq %d", u.Seq, s.lastSeq)
			}
			s.lastSeq = u.Seq
		}
		s.allocate(u, now)
		moved++
	}

	// Top-down issue-slot accounting (Figure 1).
	leftover := uint64(width - moved)
	if robFull {
		ct.tdBackend.Add(leftover)
	} else {
		ct.tdFrontend.Add(leftover)
	}

	// Decode starvation: nothing delivered while the back-end could
	// accept. Attribute to the line blocking the IFU, if it missed.
	if moved == 0 && !robFull {
		ct.decodeStarved.Inc()
		switch {
		case s.blockingEpisodeStarve(now):
			ct.starvedOnMiss.Inc()
		case co.ifuEntry == nil && co.ftq.Len() == 0:
			ct.starveNoEntry.Inc()
		case co.decodeQ.Len() > 0:
			ct.starvePipe.Inc()
		default:
			ct.starveOther.Inc()
		}
	}
}

// blockingEpisodeStarve attributes a starved cycle to the missed line
// episode the IFU is stalled on, returning false when the bubble has
// another cause (e.g. post-resteer refill).
func (s *decodeStage) blockingEpisodeStarve(now int64) bool {
	co := s.co
	e := co.ifuEntry
	if e == nil || now >= e.ReadyAt {
		return false
	}
	for _, ep := range e.Episodes {
		if ep.Missed && ep.DoneCycle > now {
			ep.Starve++
			// Issue-queue-empty proxy: the back-end has (nearly) run out
			// of work. The modelled ROB stands in for the issue queue, so
			// the threshold is an IQ-sized occupancy, not strict empty.
			if co.rob.Len() < 64 {
				ep.BackendEmpty = true
			}
			return true
		}
	}
	return false
}

// allocate moves a uop into the ROB, assigning completion time, issuing
// its data access, and scheduling the resteer for mispredicted branches.
func (s *decodeStage) allocate(u *frontend.Uop, now int64) {
	co := s.co
	ct := &co.ct.decode
	if u.WrongPath {
		ct.wrongPath.Inc()
		ct.tdBadSpec.Inc()
	} else {
		ct.tdRetiring.Inc()
	}

	switch {
	case u.IsMemOp:
		res := co.dport.Send(mem.Req{Op: mem.OpData, Line: u.DataLine, At: now})
		u.DoneAt = res.Done + 1
	case u.Inst.Kind.IsBranch():
		u.DoneAt = now + int64(co.cfg.BranchResolveLat)
	default:
		u.DoneAt = now + int64(co.cfg.ExecLat)
	}

	if u.Mispredict {
		at := u.DoneAt
		if u.ResolveAtDecode {
			at = now
		}
		co.pendingResteer = checkpoint.ResteerState{
			At:      at,
			Target:  u.CorrectTarget,
			Trigger: u.TriggerBlock,
			Cause:   u.Cause,
		}
		co.hasResteer = true
	}
	co.rob.Push(u)
}

// NextEventAt implements pipeline.Sleeper. Decode next acts when the latch
// head becomes available with ROB headroom; a ROB-full stall waits on
// retirement (the retire stage's bound). Beyond acting, decode's per-cycle
// starvation attribution can change target when the clock crosses a missed
// episode's fill completion or the blocking entry's ReadyAt, so those are
// events too — the bulk replay in AccountStall is only valid across a
// window where the attribution is constant.
func (s *decodeStage) NextEventAt(now int64) int64 {
	co := s.co
	next := pipeline.Never
	if !co.rob.Full() {
		if u, ok := co.decodeQ.Peek(); ok {
			t := u.AvailableAt
			if t < now+1 {
				t = now + 1
			}
			if t < next {
				next = t
			}
		}
	}
	if e := co.ifuEntry; e != nil && now < e.ReadyAt {
		if e.ReadyAt < next {
			next = e.ReadyAt
		}
		for _, ep := range e.Episodes {
			if ep.Missed && ep.DoneCycle > now && ep.DoneCycle < next {
				next = ep.DoneCycle
			}
		}
	}
	return next
}

// AccountStall implements pipeline.StallAccounter: it applies, in one bulk
// update, the issue-slot accounting and starvation attribution Tick would
// have done on each of the n skipped cycles. The driver guarantees (via
// the NextEventAt bounds) that every skipped cycle would have behaved
// identically: moved == 0, constant ROB fullness/occupancy class, and a
// constant blocking episode.
func (s *decodeStage) AccountStall(now int64, n int64) {
	co := s.co
	ct := &co.ct.decode
	width := uint64(co.cfg.DecodeWidth)
	nn := uint64(n)
	if co.rob.Full() {
		ct.tdBackend.Add(width * nn)
		return
	}
	ct.tdFrontend.Add(width * nn)
	ct.decodeStarved.Add(nn)
	switch {
	case s.blockingEpisodeStarveN(now, n):
		ct.starvedOnMiss.Add(nn)
	case co.ifuEntry == nil && co.ftq.Len() == 0:
		ct.starveNoEntry.Add(nn)
	case co.decodeQ.Len() > 0:
		ct.starvePipe.Add(nn)
	default:
		ct.starveOther.Add(nn)
	}
}

// blockingEpisodeStarveN is blockingEpisodeStarve's bulk form: attribute n
// consecutive starved cycles to the blocking missed episode.
func (s *decodeStage) blockingEpisodeStarveN(now int64, n int64) bool {
	co := s.co
	e := co.ifuEntry
	if e == nil || now >= e.ReadyAt {
		return false
	}
	for _, ep := range e.Episodes {
		if ep.Missed && ep.DoneCycle > now {
			ep.Starve += int(n)
			if co.rob.Len() < 64 {
				ep.BackendEmpty = true
			}
			return true
		}
	}
	return false
}
