package prefetch

import "pdip/internal/isa"

// RetireEmitter is an optional Prefetcher extension for prefetchers that
// generate requests at retirement (rather than at FTQ insertion, whose
// path returns requests directly). The core drains pending requests into
// the PQ once per cycle.
type RetireEmitter interface {
	// TakePending appends and clears requests generated since the last
	// call.
	TakePending(out []Request) []Request
}

// NextLine is the classic sequential prefetcher: when a retired line
// episode missed the L1I, prefetch the next Degree lines. The paper's §8
// discussion (and Ishii et al.'s rebasing study) predicts this baseline
// gains little over FDIP — the decoupled front-end already primes the
// sequential path — which is exactly the behaviour to demonstrate.
type NextLine struct {
	// Degree is how many following lines each miss requests.
	Degree int

	pending []Request
}

// NewNextLine returns a next-line prefetcher of the given degree.
func NewNextLine(degree int) *NextLine {
	if degree <= 0 {
		degree = 2
	}
	return &NextLine{Degree: degree}
}

// Name implements Prefetcher.
func (n *NextLine) Name() string { return "nextline" }

// StorageKB implements Prefetcher: next-line needs no metadata.
func (n *NextLine) StorageKB() float64 { return 0 }

// OnFTQInsert implements Prefetcher (no access-stream behaviour: FDIP
// already primes the predicted path).
func (n *NextLine) OnFTQInsert(_ isa.Addr, out []Request) []Request { return out }

// OnLineRetired implements Prefetcher: misses trigger sequential requests.
func (n *NextLine) OnLineRetired(ev RetireEvent) {
	if !ev.Missed {
		return
	}
	for i := 1; i <= n.Degree; i++ {
		n.pending = append(n.pending, Request{
			Line:    ev.Line + isa.Addr(i*isa.LineSize),
			Trigger: TriggerNone,
		})
	}
}

// TakePending implements RetireEmitter.
func (n *NextLine) TakePending(out []Request) []Request {
	out = append(out, n.pending...)
	n.pending = n.pending[:0]
	return out
}
