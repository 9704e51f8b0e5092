// Package frontend models the decoupled front-end (FDIP) of the paper's
// baseline: the instruction address generator (IAG) that walks the
// BPU-predicted stream one basic block per cycle, the fetch target queue
// (FTQ) that decouples prediction from fetch and drives prefetching, and
// the per-line fetch episodes that feed the FEC machinery.
package frontend

import (
	"pdip/internal/bpu"
	"pdip/internal/checkpoint"
	"pdip/internal/invariant"
	"pdip/internal/isa"
	"pdip/internal/trace"
)

// ResteerCause classifies front-end resteers for stats and PDIP triggers.
type ResteerCause = checkpoint.ResteerCause

// The resteer causes.
const (
	ResteerNone       = checkpoint.ResteerNone
	ResteerMispredict = checkpoint.ResteerMispredict
	ResteerBTBMiss    = checkpoint.ResteerBTBMiss
	ResteerReturn     = checkpoint.ResteerReturn
)

// LineEpisode is one demand-fetch episode of an instruction cache line:
// the unit the FEC conditions are evaluated over. Its record is declared
// once, as checkpoint.EpisodeState.
type LineEpisode struct {
	checkpoint.EpisodeState
}

// Uop is one instruction flowing through decode, the ROB, and retire: its
// checkpoint record plus the episode it points at.
type Uop struct {
	checkpoint.UopState
	// Ep is the fetch episode of the line this instruction came from
	// (UopState.EpisodeID is its index in a checkpoint).
	Ep *LineEpisode
}

// FTQEntry is one predicted basic block in the fetch target queue: its
// checkpoint record plus the episodes the IFU assigns.
type FTQEntry struct {
	checkpoint.FTQEntryState
	// Episodes are assigned by the IFU when demand fetch issues, one per
	// line in Lines (FTQEntryState.EpisodeIDs are their indexes in a
	// checkpoint).
	Episodes []*LineEpisode
}

// FTQ is the fixed-depth fetch target queue.
type FTQ struct {
	entries []*FTQEntry
	head    int
	count   int
}

// NewFTQ returns an FTQ with the given depth (Table 1: 24 entries).
func NewFTQ(depth int) *FTQ {
	if depth <= 0 {
		depth = 24
	}
	return &FTQ{entries: make([]*FTQEntry, depth)}
}

// Len returns the number of queued entries.
func (q *FTQ) Len() int { return q.count }

// Full reports whether the FTQ can accept no more entries.
func (q *FTQ) Full() bool { return q.count == len(q.entries) }

// Depth returns the configured capacity.
func (q *FTQ) Depth() int { return len(q.entries) }

// Push appends an entry; it panics when full (the IAG checks Full first).
func (q *FTQ) Push(e *FTQEntry) {
	if q.Full() {
		panic("frontend: FTQ overflow")
	}
	q.entries[(q.head+q.count)%len(q.entries)] = e
	q.count++
	if invariant.Enabled {
		if q.count < 0 || q.count > len(q.entries) {
			invariant.Failf("FTQ occupancy %d outside [0, %d]", q.count, len(q.entries))
		}
		for _, l := range e.Lines {
			if l.Line() != l {
				invariant.Failf("FTQ entry line %#x is not line-aligned", uint64(l))
			}
		}
	}
}

// Pop removes and returns the oldest entry, or nil when empty.
func (q *FTQ) Pop() *FTQEntry {
	if q.count == 0 {
		return nil
	}
	e := q.entries[q.head]
	q.entries[q.head] = nil
	q.head = (q.head + 1) % len(q.entries)
	q.count--
	return e
}

// Flush discards all entries (front-end resteer).
func (q *FTQ) Flush() {
	for i := range q.entries {
		q.entries[i] = nil
	}
	q.head, q.count = 0, 0
}

// Contains reports whether any queued entry covers line (used to suppress
// duplicate prefetches: targets are checked against the FTQ before
// issuing, §6.2).
func (q *FTQ) Contains(line isa.Addr) bool {
	for i := 0; i < q.count; i++ {
		e := q.entries[(q.head+i)%len(q.entries)]
		for _, l := range e.Lines {
			if l == line {
				return true
			}
		}
	}
	return false
}

// IAG is the instruction address generator: it walks the predicted stream
// one basic block per cycle, consulting the BPU on the correct path and
// following a forked wrong-path source after a mispredict until the
// resteer arrives.
type IAG struct {
	BPU    *bpu.BPU
	oracle trace.OracleSource
	wrong  trace.Source

	// maxEntryInsts caps instructions per FTQ entry.
	maxEntryInsts int

	// pendingMispredict blocks further correct-path tracking until the
	// current mispredict resolves.
	pendingMispredict bool

	// free is the FTQ-entry recycling pool and wrongFree the retired
	// wrong-path source whose storage the next fork reuses. Both are
	// allocator bookkeeping: a recycled entry is bit-identical to a fresh
	// one, and ForkWrong reproduces a fresh fork's stream exactly.
	free      []*FTQEntry
	wrongFree trace.Source
}

// NewIAG builds an IAG over the oracle instruction source (the synthetic
// CFG walker, or a ChampSim trace replay).
func NewIAG(b *bpu.BPU, oracle trace.OracleSource, maxEntryInsts int) *IAG {
	if maxEntryInsts <= 0 {
		maxEntryInsts = 16
	}
	return &IAG{BPU: b, oracle: oracle, maxEntryInsts: maxEntryInsts}
}

// OnWrongPath reports whether the IAG is fetching beyond an unresolved
// mispredict.
func (g *IAG) OnWrongPath() bool { return g.wrong != nil }

// Resteer redirects the IAG back to the correct path. The oracle source is
// already positioned at the resteer target (it stopped advancing when the
// mispredict was detected), so the wrong-path source is simply dropped.
func (g *IAG) Resteer() {
	if g.wrong != nil {
		g.wrongFree = g.wrong
	}
	g.wrong = nil
	g.pendingMispredict = false
}

// Recycle returns a fully drained FTQ entry to the IAG's pool so a later
// NextEntry reuses its storage. The caller must drop every reference to
// the entry and its slices first.
func (g *IAG) Recycle(e *FTQEntry) {
	if e == nil {
		return
	}
	g.free = append(g.free, e)
}

// newEntry pops a pooled entry (resetting it field-for-field to the zero
// entry while keeping slice backing) or allocates a fresh one.
func (g *IAG) newEntry(wrongPath bool) *FTQEntry {
	if n := len(g.free); n > 0 {
		e := g.free[n-1]
		g.free = g.free[:n-1]
		*e = FTQEntry{
			FTQEntryState: checkpoint.FTQEntryState{
				Insts:     e.Insts[:0],
				Lines:     e.Lines[:0],
				WrongPath: wrongPath,
			},
			Episodes: e.Episodes[:0],
		}
		return e
	}
	//lint:ignore allocfree pool refill when the FTQ entry free list is empty; amortized
	return &FTQEntry{FTQEntryState: checkpoint.FTQEntryState{WrongPath: wrongPath}}
}

// NextEntry assembles the next FTQ entry from the predicted stream: it
// takes one run from the active source, up to a branch terminator or the
// entry-size cap, predicts the terminator on the correct path, and forks
// a wrong-path source when the prediction diverges from the oracle.
func (g *IAG) NextEntry() *FTQEntry {
	var w trace.Source = g.oracle
	if g.wrong != nil {
		w = g.wrong
	}
	//lint:ignore allocfree inlined pool refill (newEntry); amortized once the free list warms
	e := g.newEntry(g.wrong != nil)

	e.Insts = w.AppendRun(e.Insts, g.maxEntryInsts)
	e.Start = e.Insts[0].PC
	for _, in := range e.Insts {
		ln := in.PC.Line()
		if n := len(e.Lines); n == 0 || e.Lines[n-1] != ln {
			e.Lines = append(e.Lines, ln)
		}
		// Instructions spanning a line boundary touch the next line too.
		if end := in.PC + isa.Addr(in.Size) - 1; end.Line() != ln {
			e.Lines = append(e.Lines, end.Line())
		}
	}
	e.HasBranch = e.Insts[len(e.Insts)-1].Kind.IsBranch()

	if !e.HasBranch || e.WrongPath {
		// Sequential continuation, or wrong-path entry whose outcome the
		// front-end follows directly (nested wrong-path mispredicts are
		// not modelled; the resteer squashes everything anyway).
		return e
	}

	term := e.Insts[len(e.Insts)-1]
	pred := g.BPU.PredictAndTrain(term)
	e.Pred = pred

	predictedNext := term.FallThrough()
	if pred.Taken && pred.Target != 0 {
		predictedNext = pred.Target
	}
	actualNext := term.NextPC()
	if predictedNext == actualNext || g.pendingMispredict {
		return e
	}

	// Prediction diverged: classify the resteer and fork the wrong path.
	e.Mispredict = true
	e.CorrectTarget = actualNext
	switch {
	case !pred.BTBHit && term.Taken:
		e.Cause = ResteerBTBMiss
		// Early correction: decode computes direct targets (and the RAS
		// supplies return targets) without waiting for execute.
		e.ResolveAtDecode = term.Kind == isa.UncondDirect ||
			term.Kind == isa.DirectCall || term.Kind == isa.Return
	case term.Kind == isa.Return:
		e.Cause = ResteerReturn
	default:
		e.Cause = ResteerMispredict
	}
	g.pendingMispredict = true
	g.wrong = g.oracle.ForkWrong(g.wrongFree, predictedNext)
	g.wrongFree = nil
	return e
}
