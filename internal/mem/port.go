// Port model: the hierarchy's levels are connected by request/response
// ports instead of nested function calls. A requester sends a typed Req
// message into a Port and receives an AccessResult reply whose Done field
// carries the explicit completion cycle; misses propagate down the chain
// as OpFill messages whose At timestamps accumulate the traversal latency
// level by level. The simulator stays cycle-timed rather than event-driven
// — a message's reply is computed synchronously, but all timing lives in
// the message (send cycle in, completion cycle out), so a level only sees
// its port traffic. That boundary is what lets a level be shared between
// cores or swapped for a queued DRAM model without touching the core.
package mem

import (
	"pdip/internal/cache"
	"pdip/internal/invariant"
	"pdip/internal/isa"
)

// Op enumerates the request kinds that cross a port.
type Op uint8

const (
	// OpFetch is a demand instruction fetch (blocks the IFU until done).
	OpFetch Op = iota
	// OpData is a demand data access (load/store treated alike).
	OpData
	// OpPrefetch is a prefetch-queue issue: dropped rather than delayed
	// when the line is present or MSHR headroom is insufficient.
	OpPrefetch
	// OpPrime is the FDIP fill path: like OpPrefetch but not attributed
	// to the prefetcher under study (FDIP is part of the baseline).
	OpPrime
	// OpFill is the internal miss-fill message a level sends downstream.
	OpFill
)

func (o Op) String() string {
	switch o {
	case OpFetch:
		return "fetch"
	case OpData:
		return "data"
	case OpPrefetch:
		return "prefetch"
	case OpPrime:
		return "prime"
	default:
		return "fill"
	}
}

// DropReason says why a prefetch-class request was discarded.
type DropReason uint8

const (
	// DropNone means the request was not dropped.
	DropNone DropReason = iota
	// DropPresent means the line was already resident or in flight.
	DropPresent
	// DropMSHR means MSHR headroom (after the demand reserve) ran out.
	DropMSHR
)

// Req is one message sent into a port. Req is passed and replied to by
// value throughout the chain — requests and results never escape to the
// heap, which keeps every hierarchy access allocation-free. Additions to
// Req must preserve that: no pointers into caller storage that would force
// an escape, no per-request slices.
type Req struct {
	// Op selects the request kind.
	Op Op
	// Line is the cache line address.
	Line isa.Addr
	// At is the cycle the message enters the port. Downstream OpFill
	// messages carry the accumulated traversal time.
	At int64
	// Class attributes lower-level misses to the instruction or data
	// side. Front ports stamp it when forwarding fills; requesters need
	// not set it.
	Class cache.Class
	// Priority propagates the EMISSARY P-bit to the fill.
	Priority bool
	// ZeroCost installs OpPrefetch fills instantly (§7.2 ceiling).
	ZeroCost bool
	// Reserve is the MSHR headroom kept free for demand fetches
	// (OpPrefetch/OpPrime only).
	Reserve int
	// Src identifies the requesting core at shared (owner-tracked) levels.
	// Stamped by the uncore's tenant ports; zero for a lone core.
	Src uint8
	// Speculative marks a fill that originated from a prefetch-class
	// request (OpPrefetch/OpPrime). A contended shared level drops such
	// fills rather than queueing them behind another tenant's misses.
	Speculative bool
}

// Port is one side of a request/response link in the hierarchy. Send
// delivers a message and returns the reply; all timing is carried in the
// message (Req.At in, AccessResult.Done out).
type Port interface {
	Send(Req) AccessResult
}

// dramPort terminates the chain: a flat fixed-latency main memory.
type dramPort struct {
	latency int
}

func (p *dramPort) Send(req Req) AccessResult {
	return AccessResult{Done: req.At + int64(p.latency), ServedBy: LevelMem}
}

// levelPort fronts one shared cache level (L2, L3). It serves OpFill
// messages: a hit replies with the level's ready cycle; a miss forwards
// the fill downstream after the lookup latency, then installs the line
// inclusively, never completing before the level's own MSHR file frees.
type levelPort struct {
	c     *cache.Cache
	down  Port
	level Level
	// gateMSHR delays the downstream issue until an MSHR frees (the
	// L3-before-DRAM discipline) instead of bounding the reply afterwards
	// (the L2 discipline, where the upstream fill is what waits).
	gateMSHR bool
}

func (p *levelPort) Send(req Req) AccessResult {
	if r := p.c.Access(req.Line, req.At, req.Class); r.Hit {
		return AccessResult{Done: r.ReadyAt, ServedBy: p.level}
	}
	// Lookup latency to determine the miss, then forward downstream.
	t := req.At + int64(p.c.Config().HitLatency)
	if p.c.OwnersEnabled() {
		return p.sendMissOwned(req, t)
	}
	issueAt := t
	if p.gateMSHR {
		issueAt = p.c.EarliestMSHRFree(t)
	}
	down := p.down.Send(Req{Op: OpFill, Line: req.Line, At: issueAt, Class: req.Class})
	ready := down.Done
	if !p.gateMSHR {
		if start := p.c.EarliestMSHRFree(t); start > ready {
			ready = start
		}
	}
	p.c.Fill(req.Line, t, ready, cache.FillOpts{})
	if invariant.Enabled && !p.c.Contains(req.Line) {
		invariant.Failf("level %s: line %#x absent after inclusive fill", p.level, uint64(req.Line))
	}
	return AccessResult{Done: ready, ServedBy: down.ServedBy}
}

// sendMissOwned is the miss path when the level tracks per-requester MSHR
// ownership (a shared uncore level). Demand-origin fills wait for the
// requester's quota — the wait is charged to that requester, not to its
// co-tenants — while speculative fills drop when the quota is exhausted.
// The MSHR disciplines mirror the exclusive path: a gating level delays
// the downstream issue, a non-gating level bounds its reply.
func (p *levelPort) sendMissOwned(req Req, t int64) AccessResult {
	owner := int(req.Src)
	if req.Speculative && !p.c.OwnerCanIssue(t, owner) {
		p.c.Owners[owner].SpecDropped++
		return AccessResult{Dropped: true, Reason: DropMSHR}
	}
	start := p.c.EarliestMSHRFreeFor(t, owner)
	if start > t {
		p.c.Owners[owner].DelayedFills++
		p.c.Owners[owner].DelayCycles += uint64(start - t)
	}
	issueAt := t
	if p.gateMSHR {
		issueAt = start
	}
	down := p.down.Send(Req{
		Op: OpFill, Line: req.Line, At: issueAt, Class: req.Class,
		Src: req.Src, Speculative: req.Speculative,
	})
	if down.Dropped {
		// A deeper shared level refused the speculative fill; install
		// nothing here either (inclusion: never hold a line L3 refused).
		return down
	}
	ready := down.Done
	if !p.gateMSHR && start > ready {
		ready = start
	}
	p.c.Fill(req.Line, t, ready, cache.FillOpts{Owner: req.Src})
	if invariant.Enabled && !p.c.Contains(req.Line) {
		invariant.Failf("level %s: line %#x absent after inclusive fill", p.level, uint64(req.Line))
	}
	return AccessResult{Done: ready, ServedBy: down.ServedBy}
}

// l1Port fronts a first-level cache (L1I or L1D) and implements the
// demand and prefetch disciplines of §5: demand misses wait for an MSHR,
// prefetch-class fills are dropped when the line is present or headroom
// (minus the demand reserve) is exhausted.
type l1Port struct {
	c *cache.Cache
	// down is the L2-facing port: a tenant port into the uncore's chain.
	// Only the miss path crosses it, so the interface call is off the
	// L1-hit fast path.
	down  Port
	class cache.Class
}

func (p *l1Port) Send(req Req) AccessResult {
	switch req.Op {
	case OpPrefetch, OpPrime:
		return p.sendPrefetch(req)
	default:
		return p.sendDemand(req)
	}
}

// sendDemand serves OpFetch/OpData: a hit (possibly on an in-flight MSHR)
// replies immediately; a miss waits for MSHR headroom, then forwards the
// fill downstream.
func (p *l1Port) sendDemand(req Req) AccessResult {
	if r := p.c.Access(req.Line, req.At, p.class); r.Hit {
		return AccessResult{
			Done:        r.ReadyAt,
			L1Hit:       true,
			WasInflight: r.WasInflight,
			WasPrefetch: r.WasPrefetch,
			ServedBy:    LevelL1,
		}
	}
	start := p.c.EarliestMSHRFree(req.At)
	// Demand-origin fills are never dropped downstream (only speculative
	// fills drop at a contended shared level), so no Dropped check here.
	down := p.down.Send(Req{Op: OpFill, Line: req.Line, At: start, Class: p.class, Src: req.Src})
	p.c.Fill(req.Line, req.At, down.Done, cache.FillOpts{Priority: req.Priority})
	return AccessResult{Done: down.Done, ServedBy: down.ServedBy}
}

// sendPrefetch serves OpPrefetch/OpPrime, which drop rather than delay.
func (p *l1Port) sendPrefetch(req Req) AccessResult {
	if p.c.Contains(req.Line) {
		return AccessResult{Dropped: true, Reason: DropPresent}
	}
	if req.Op == OpPrefetch && req.ZeroCost {
		p.c.Fill(req.Line, req.At, req.At, cache.FillOpts{Prefetch: true, Priority: req.Priority})
		return AccessResult{Done: req.At, ServedBy: LevelL1}
	}
	if p.c.MSHRFree(req.At) <= req.Reserve {
		return AccessResult{Dropped: true, Reason: DropMSHR}
	}
	down := p.down.Send(Req{
		Op: OpFill, Line: req.Line, At: req.At, Class: p.class,
		Src: req.Src, Speculative: true,
	})
	if down.Dropped {
		// A contended shared level refused the speculative fill; surface
		// the drop so the PQ's drop classification attributes it.
		return down
	}
	p.c.Fill(req.Line, req.At, down.Done, cache.FillOpts{
		Prefetch: req.Op == OpPrefetch,
		Priority: req.Priority,
	})
	if invariant.Enabled && req.Op == OpPrefetch {
		// Demand-first discipline: a forwarded prefetch consumes at most
		// one MSHR, so the reserve kept for demand fetches must survive
		// the fill it just triggered.
		if free := p.c.MSHRFree(req.At); free < req.Reserve {
			invariant.Failf("prefetch fill broke the demand reserve: %d MSHRs free < reserve %d", free, req.Reserve)
		}
	}
	return AccessResult{Done: down.Done, ServedBy: down.ServedBy}
}
