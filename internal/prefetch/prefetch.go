// Package prefetch defines the interface between the core and pluggable
// instruction prefetchers (PDIP, EIP), the prefetch queue (PQ) that sits
// beside the FTQ, and the counters behind the paper's prefetch metrics
// (PPKI, accuracy, late rate, trigger distribution).
package prefetch

import (
	"pdip/internal/checkpoint"
	"pdip/internal/invariant"
	"pdip/internal/isa"
	"pdip/internal/mem"
)

// TriggerKind classifies why a prefetch was issued (Figure 16).
type TriggerKind uint8

const (
	// TriggerNone is used by prefetchers without PDIP-style triggers.
	TriggerNone TriggerKind = iota
	// TriggerMispredict means the trigger was a front-end resteering
	// instruction (branch mispredict or BTB miss).
	TriggerMispredict
	// TriggerLastTaken means the trigger was the last retired taken
	// branch (long-latency misses with no resteer).
	TriggerLastTaken
)

func (k TriggerKind) String() string {
	switch k {
	case TriggerMispredict:
		return "mispredict"
	case TriggerLastTaken:
		return "last-taken"
	default:
		return "none"
	}
}

// Request is one prefetch target emitted by a prefetcher.
type Request struct {
	// Line is the cache line to prefetch.
	Line isa.Addr
	// Trigger records the trigger class for Figure 16 accounting.
	Trigger TriggerKind
}

// RetireEvent describes the retirement of the first instruction of one
// cache-line fetch episode, carrying everything the FEC machinery and the
// prefetchers need: miss status, observed latency, front-end stall
// exposure, back-end starvation, and the trigger candidates.
type RetireEvent struct {
	// Line is the instruction cache line.
	Line isa.Addr
	// Missed reports whether this episode missed the L1I.
	Missed bool
	// ServedBy is the level that supplied the line on a miss.
	ServedBy mem.Level
	// FetchCycle is when the demand access was issued.
	FetchCycle int64
	// FetchLatency is the demand-visible fill latency in cycles.
	FetchLatency int64
	// StarveCycles counts decode-starvation cycles attributed to this
	// episode's miss.
	StarveCycles int
	// BackendEmpty reports whether the back-end ran dry (issue queue
	// empty) during the starvation window.
	BackendEmpty bool
	// FEC reports the paper's three-condition front-end-critical status:
	// retired an instruction, missed the L1I, exposed front-end stalls.
	FEC bool
	// HighCost reports StarveCycles above the high-cost threshold (>10).
	HighCost bool
	// ResteerTrigger is the block (line) address of the most recent
	// front-end resteering instruction when this episode was fetched in
	// a resteer shadow, else 0.
	ResteerTrigger isa.Addr
	// ResteerWasReturn marks resteers caused by return mispredicts
	// (excluded from PDIP insertion per §5.2).
	ResteerWasReturn bool
	// LastTakenBlock is the block address of the last retired taken
	// branch (the long-latency-miss trigger).
	LastTakenBlock isa.Addr
}

// Prefetcher is the core-facing contract. Implementations are driven by
// two event streams: FTQ insertions (the access stream the BPU predicts)
// and line-episode retirements (the architecturally correct stream).
type Prefetcher interface {
	// Name identifies the prefetcher in stats output.
	Name() string
	// OnFTQInsert is invoked once per new FTQ entry with the entry's
	// starting block (line) address; the prefetcher appends any prefetch
	// requests to out and returns it.
	OnFTQInsert(block isa.Addr, out []Request) []Request
	// OnLineRetired is invoked once per retired line episode.
	OnLineRetired(ev RetireEvent)
	// StorageKB reports the metadata budget for Figure 15 accounting.
	StorageKB() float64
}

// Stats aggregates prefetch-issue accounting maintained by the queue.
type Stats = checkpoint.QueueStats

// Queue is the prefetch queue (PQ) of §5: a FIFO of prefetch target lines
// that probes the L1I and issues fills only with MSHR headroom to spare.
type Queue struct {
	entries []Request
	head    int
	count   int

	// ReserveMSHRs is the demand-protection threshold (default 2).
	ReserveMSHRs int
	// IssuePerCycle bounds prefetch issue bandwidth.
	IssuePerCycle int
	// ZeroCost makes issued prefetches install instantly (timeliness
	// ceiling study, §7.2).
	ZeroCost bool

	Stats Stats
}

// NewQueue returns a PQ with the given capacity (Table 1: 40 lines).
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = 40
	}
	return &Queue{
		entries:       make([]Request, capacity),
		ReserveMSHRs:  2,
		IssuePerCycle: 2,
	}
}

// Len returns the queued request count.
func (q *Queue) Len() int { return q.count }

// Enqueue adds requests, dropping when full (the paper drops rather than
// back-pressures).
func (q *Queue) Enqueue(reqs ...Request) {
	for _, r := range reqs {
		if q.count == len(q.entries) {
			q.Stats.DroppedQueueFull++
			continue
		}
		q.entries[(q.head+q.count)%len(q.entries)] = r
		q.count++
		q.Stats.Enqueued++
		if invariant.Enabled {
			if q.count > len(q.entries) {
				invariant.Failf("PQ occupancy %d exceeds capacity %d", q.count, len(q.entries))
			}
			if r.Line.Line() != r.Line {
				invariant.Failf("PQ request %#x is not line-aligned", uint64(r.Line))
			}
		}
	}
}

// Drain issues up to IssuePerCycle prefetches into the instruction-side
// port at cycle now, as OpPrefetch messages. priority marks fills with the
// EMISSARY P-bit when the policy promotes prefetched FEC lines
// (PDIP+EMISSARY synergy). Drops are classified from the port's reply.
func (q *Queue) Drain(p mem.Port, now int64, priorityOf func(isa.Addr) bool) {
	for n := 0; n < q.IssuePerCycle && q.count > 0; n++ {
		req := q.entries[q.head]
		q.head = (q.head + 1) % len(q.entries)
		q.count--
		pri := priorityOf != nil && priorityOf(req.Line)
		res := p.Send(mem.Req{
			Op:       mem.OpPrefetch,
			Line:     req.Line,
			At:       now,
			Reserve:  q.ReserveMSHRs,
			Priority: pri,
			ZeroCost: q.ZeroCost,
		})
		if res.Dropped {
			if res.Reason == mem.DropPresent {
				q.Stats.DroppedPresent++
			} else {
				q.Stats.DroppedMSHR++
			}
			continue
		}
		q.Stats.Issued++
		q.Stats.ByTrigger[req.Trigger]++
	}
	if invariant.Enabled && (q.count < 0 || q.head < 0 || q.head >= len(q.entries)) {
		invariant.Failf("PQ ring corrupt: head %d count %d capacity %d", q.head, q.count, len(q.entries))
	}
}

// Flush empties the queue (used on front-end resteers).
func (q *Queue) Flush() {
	q.head = 0
	q.count = 0
}

// None is the no-op prefetcher used by the FDIP-only baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnFTQInsert implements Prefetcher.
func (None) OnFTQInsert(_ isa.Addr, out []Request) []Request { return out }

// OnLineRetired implements Prefetcher.
func (None) OnLineRetired(RetireEvent) {}

// StorageKB implements Prefetcher.
func (None) StorageKB() float64 { return 0 }
