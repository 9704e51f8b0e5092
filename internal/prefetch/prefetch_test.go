package prefetch

import (
	"testing"

	"pdip/internal/isa"
	"pdip/internal/mem"
	"pdip/internal/uncore"
)

// newHierarchy builds a lone core's hierarchy the way a socket does:
// private L1s over a one-requester uncore's tenant port.
func newHierarchy(cfg mem.Config) *mem.Hierarchy {
	u := uncore.MustNew(uncore.Config{L2: cfg.L2, L3: cfg.L3, DRAMLatency: cfg.DRAMLatency, Requesters: 1})
	return mem.MustNew(cfg, u.L2, u.L3, u.Port(0))
}

func TestQueueFIFOAndDrop(t *testing.T) {
	q := NewQueue(2)
	q.Enqueue(Request{Line: 0x40}, Request{Line: 0x80}, Request{Line: 0xc0})
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Stats.DroppedQueueFull != 1 || q.Stats.Enqueued != 2 {
		t.Fatalf("stats %+v", q.Stats)
	}
}

func TestQueueDrainIssues(t *testing.T) {
	h := newHierarchy(mem.DefaultConfig())
	q := NewQueue(8)
	q.IssuePerCycle = 2
	q.Enqueue(Request{Line: 0x1000, Trigger: TriggerMispredict},
		Request{Line: 0x2000, Trigger: TriggerLastTaken},
		Request{Line: 0x3000, Trigger: TriggerMispredict})
	q.Drain(h.InstPort(), 10, nil)
	if q.Stats.Issued != 2 || q.Len() != 1 {
		t.Fatalf("issued %d, remaining %d", q.Stats.Issued, q.Len())
	}
	q.Drain(h.InstPort(), 11, nil)
	if q.Stats.Issued != 3 {
		t.Fatalf("issued %d after second drain", q.Stats.Issued)
	}
	if q.Stats.ByTrigger[TriggerMispredict] != 2 || q.Stats.ByTrigger[TriggerLastTaken] != 1 {
		t.Fatalf("trigger split %+v", q.Stats.ByTrigger)
	}
	if !h.L1I.Contains(0x1000) || !h.L1I.Contains(0x3000) {
		t.Fatal("prefetched lines not installed")
	}
}

func TestQueueDropsPresent(t *testing.T) {
	h := newHierarchy(mem.DefaultConfig())
	h.InstPort().Send(mem.Req{Op: mem.OpFetch, Line: 0x1000, At: 0})
	q := NewQueue(8)
	q.Enqueue(Request{Line: 0x1000})
	q.Drain(h.InstPort(), 500, nil)
	if q.Stats.Issued != 0 || q.Stats.DroppedPresent != 1 {
		t.Fatalf("stats %+v", q.Stats)
	}
}

func TestQueueRespectsMSHRReserve(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.L1I.MSHRs = 3
	h := newHierarchy(cfg)
	q := NewQueue(8)
	q.ReserveMSHRs = 2
	q.IssuePerCycle = 4
	q.Enqueue(Request{Line: 0x1000}, Request{Line: 0x2000})
	q.Drain(h.InstPort(), 0, nil)
	if q.Stats.Issued != 1 || q.Stats.DroppedMSHR != 1 {
		t.Fatalf("stats %+v", q.Stats)
	}
}

func TestQueuePriorityCallback(t *testing.T) {
	h := newHierarchy(mem.DefaultConfig())
	q := NewQueue(4)
	q.Enqueue(Request{Line: 0x1000})
	q.Drain(h.InstPort(), 0, func(l isa.Addr) bool { return true })
	if h.L1I.PriorityLines() != 1 {
		t.Fatal("priority callback not applied to fill")
	}
}

func TestQueueZeroCost(t *testing.T) {
	h := newHierarchy(mem.DefaultConfig())
	q := NewQueue(4)
	q.ZeroCost = true
	q.Enqueue(Request{Line: 0x1000})
	q.Drain(h.InstPort(), 7, nil)
	res := h.InstPort().Send(mem.Req{Op: mem.OpFetch, Line: 0x1000, At: 8})
	if !res.L1Hit || res.WasInflight {
		t.Fatalf("zero-cost fill not instant: %+v", res)
	}
}

func TestQueueFlush(t *testing.T) {
	q := NewQueue(4)
	q.Enqueue(Request{Line: 0x40}, Request{Line: 0x80})
	q.Flush()
	if q.Len() != 0 {
		t.Fatal("flush left entries")
	}
}

func TestNonePrefetcher(t *testing.T) {
	var n None
	if n.Name() != "none" || n.StorageKB() != 0 {
		t.Fatal("None identity wrong")
	}
	buf := []Request{{Line: 1}}
	if got := n.OnFTQInsert(0x40, buf); len(got) != 1 {
		t.Fatal("None mutated the request buffer")
	}
	n.OnLineRetired(RetireEvent{})
}

func TestTriggerKindString(t *testing.T) {
	for _, k := range []TriggerKind{TriggerNone, TriggerMispredict, TriggerLastTaken} {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestNextLineEmitsOnMiss(t *testing.T) {
	n := NewNextLine(3)
	n.OnLineRetired(RetireEvent{Line: 0x9000, Missed: true})
	reqs := n.TakePending(nil)
	if len(reqs) != 3 {
		t.Fatalf("emitted %d, want 3", len(reqs))
	}
	for i, r := range reqs {
		want := isa.Addr(0x9000 + (i+1)*isa.LineSize)
		if r.Line != want {
			t.Fatalf("request %d = %v, want %v", i, r.Line, want)
		}
	}
	// Hits emit nothing; pending is drained.
	n.OnLineRetired(RetireEvent{Line: 0xa000, Missed: false})
	if got := n.TakePending(nil); len(got) != 0 {
		t.Fatal("hit emitted requests")
	}
}

func TestNextLineIdentity(t *testing.T) {
	n := NewNextLine(0) // defaulted
	if n.Degree != 2 || n.Name() != "nextline" || n.StorageKB() != 0 {
		t.Fatalf("identity: %+v", n)
	}
}
