// Package bpu implements the branch prediction unit of the modelled core:
// a TAGE conditional direction predictor, an ITTAGE indirect target
// predictor, a set-associative BTB, and a return address stack. These are
// the structures the paper's gem5 baseline uses (Table 1: 64KB TAGE, 64KB
// ITTAGE, 8K-entry BTB) and whose capacity pressure creates the resteers
// PDIP exploits.
package bpu

import (
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/recycle"
)

// tageTables is the number of tagged TAGE components.
const tageTables = 6

// tageHistLens are the geometric history lengths of the tagged components.
var tageHistLens = [tageTables]int{4, 9, 18, 36, 72, 144}

const (
	tageTagBits   = 11
	tageEntryBits = 10 // 1024 entries per tagged table
	baseBits      = 13 // 8192-entry bimodal base
	maxHist       = 256
)

// foldedHist incrementally maintains a hash of the most recent origLen
// history bits folded into width bits, updated in O(1) per history push
// (the classic CBP "compressed history" construction).
type foldedHist struct {
	comp     uint32
	origLen  int
	width    int
	outPoint int
}

func newFolded(origLen, width int) foldedHist {
	return foldedHist{origLen: origLen, width: width, outPoint: origLen % width}
}

// push mixes in the newest bit and removes the bit that falls out of the
// origLen-bit window (oldBit).
func (f *foldedHist) push(newBit, oldBit bool) {
	f.comp = (f.comp << 1)
	if newBit {
		f.comp |= 1
	}
	if oldBit {
		f.comp ^= 1 << f.outPoint
	}
	f.comp ^= f.comp >> f.width
	f.comp &= (1 << f.width) - 1
}

// history is a circular global direction-history buffer that feeds the
// folded hashes of TAGE and ITTAGE.
type history struct {
	bits [maxHist]bool
	head int // index of most recent bit
}

func (h *history) push(b bool) {
	h.head = (h.head + 1) & (maxHist - 1)
	h.bits[h.head] = b
}

// at returns the i-th most recent bit (0 = newest).
func (h *history) at(i int) bool {
	return h.bits[(h.head-i)&(maxHist-1)]
}

// TAGE is a TAgged GEometric-history-length conditional branch predictor
// (Seznec & Michaud). The implementation follows the classic design: a
// bimodal base predictor plus tagged components indexed by hashes of the
// PC and progressively longer global history, with provider/altpred
// selection, useful counters, and allocation on mispredict.
type TAGE struct {
	base   []int8 // 2-bit counters, -2..1; >= 0 means taken
	tables [tageTables][]checkpoint.TAGEEntry

	hist    history
	idxFold [tageTables]foldedHist
	tagFold [tageTables]foldedHist
	tg2Fold [tageTables]foldedHist

	// useAltOnNa biases provider-vs-alt choice for weak new entries.
	useAltOnNa int8
	// allocSeed provides deterministic pseudo-randomness for allocation.
	allocSeed uint64

	// memo caches the per-table indices and tags of the last prepared
	// (pc, history) pair. Predict and Update for the same branch see the
	// same history (Update trains before PushHistory shifts it), so the
	// folded-history hashes would otherwise be recomputed two or three
	// times per predicted branch — once in Predict's lookup, once in
	// Update's, once in allocate. PushHistory invalidates the memo.
	memoPC  isa.Addr
	memoOK  bool
	memoIdx [tageTables]int32
	memoTag [tageTables]uint16
}

// NewTAGE returns a TAGE predictor with the default (≈64KB-class) geometry.
func NewTAGE() *TAGE {
	t := &TAGE{base: recycle.Make[[]int8](1 << baseBits)}
	for i := range t.tables {
		t.tables[i] = recycle.Make[[]checkpoint.TAGEEntry](1 << tageEntryBits)
		t.idxFold[i] = newFolded(tageHistLens[i], tageEntryBits)
		t.tagFold[i] = newFolded(tageHistLens[i], tageTagBits)
		t.tg2Fold[i] = newFolded(tageHistLens[i], tageTagBits-1)
	}
	return t
}

// Release hands the base and tagged tables to the recycler and drops
// them.
func (t *TAGE) Release() {
	recycle.Free(t.base)
	t.base = nil
	for i := range t.tables {
		recycle.Free(t.tables[i])
		t.tables[i] = nil
	}
}

func (t *TAGE) index(table int, pc isa.Addr) int {
	v := uint32(pc>>1) ^ uint32(pc>>(1+tageEntryBits)) ^ t.idxFold[table].comp ^ uint32(table*0x9e37)
	return int(v & ((1 << tageEntryBits) - 1))
}

func (t *TAGE) tag(table int, pc isa.Addr) uint16 {
	v := uint32(pc>>1) ^ t.tagFold[table].comp ^ (t.tg2Fold[table].comp << 1) ^ uint32(table*0x7f4a)
	return uint16(v & ((1 << tageTagBits) - 1))
}

// prepare fills the index/tag memo for pc against the current history,
// reusing it when pc was already prepared since the last history shift.
func (t *TAGE) prepare(pc isa.Addr) {
	if t.memoOK && t.memoPC == pc {
		return
	}
	for i := 0; i < tageTables; i++ {
		t.memoIdx[i] = int32(t.index(i, pc))
		t.memoTag[i] = t.tag(i, pc)
	}
	t.memoPC = pc
	t.memoOK = true
}

func (t *TAGE) baseIndex(pc isa.Addr) int {
	return int((pc >> 1) & ((1 << baseBits) - 1))
}

// Predict returns the predicted direction for the conditional branch at pc.
func (t *TAGE) Predict(pc isa.Addr) bool {
	pred, _, _, _ := t.lookup(pc)
	return pred
}

// lookup returns (prediction, provider table or -1 for base, provider
// index, altpred).
func (t *TAGE) lookup(pc isa.Addr) (pred bool, provider, pidx int, altpred bool) {
	t.prepare(pc)
	provider = -1
	altFound := false
	altpred = t.base[t.baseIndex(pc)] >= 0
	pred = altpred
	for i := tageTables - 1; i >= 0; i-- {
		idx := int(t.memoIdx[i])
		e := &t.tables[i][idx]
		if e.Tag == t.memoTag[i] {
			if provider == -1 {
				provider, pidx = i, idx
				pred = e.Ctr >= 0
			} else {
				altpred = e.Ctr >= 0
				altFound = true
				break
			}
		}
	}
	if provider >= 0 && !altFound {
		altpred = t.base[t.baseIndex(pc)] >= 0
	}
	// Weak new entries: optionally trust the alternate prediction.
	if provider >= 0 {
		e := &t.tables[provider][pidx]
		weak := e.Ctr == 0 || e.Ctr == -1
		if weak && e.Useful == 0 && t.useAltOnNa >= 0 {
			pred = altpred
		}
	}
	return pred, provider, pidx, altpred
}

// Update trains the predictor with the actual outcome of the conditional
// branch at pc and shifts the global history. Update must be called for
// every retired conditional branch, after Predict for the same branch.
func (t *TAGE) Update(pc isa.Addr, taken bool) {
	pred, provider, pidx, altpred := t.lookup(pc)
	mispred := pred != taken

	if provider >= 0 {
		e := &t.tables[provider][pidx]
		provPred := e.Ctr >= 0
		// Track whether trusting alt over weak providers helps.
		weak := e.Ctr == 0 || e.Ctr == -1
		if weak && provPred != altpred {
			if provPred == taken {
				if t.useAltOnNa > -8 {
					t.useAltOnNa--
				}
			} else if t.useAltOnNa < 7 {
				t.useAltOnNa++
			}
		}
		if provPred == taken && altpred != taken && e.Useful < 3 {
			e.Useful++
		} else if provPred != taken && altpred == taken && e.Useful > 0 {
			e.Useful--
		}
		bump(&e.Ctr, taken, -4, 3)
	} else {
		b := &t.base[t.baseIndex(pc)]
		bump(b, taken, -2, 1)
	}

	// Allocate a new entry in a longer-history table on mispredict.
	if mispred && provider < tageTables-1 {
		t.allocate(pc, taken, provider)
	}

	t.PushHistory(taken)
}

// allocate tries to claim an entry in one of the tables with history
// longer than the provider's, preferring not-useful entries. It runs
// between Update's lookup and PushHistory, so the memo is warm.
func (t *TAGE) allocate(pc isa.Addr, taken bool, provider int) {
	t.prepare(pc)
	start := provider + 1
	// Pseudo-random start offset avoids always allocating in the shortest
	// eligible table (standard TAGE trick).
	t.allocSeed = t.allocSeed*6364136223846793005 + 1442695040888963407
	if n := tageTables - start; n > 1 && (t.allocSeed>>33)&1 == 1 {
		start++
	}
	allocated := false
	for i := start; i < tageTables; i++ {
		e := &t.tables[i][t.memoIdx[i]]
		if e.Useful == 0 {
			e.Tag = t.memoTag[i]
			if taken {
				e.Ctr = 0
			} else {
				e.Ctr = -1
			}
			allocated = true
			break
		}
	}
	if !allocated {
		// Decay useful bits along the allocation path so future
		// allocations succeed (graceful aging).
		for i := start; i < tageTables; i++ {
			e := &t.tables[i][t.memoIdx[i]]
			if e.Useful > 0 {
				e.Useful--
			}
		}
	}
}

// PushHistory shifts one direction bit into the global history and updates
// every folded hash. It is also used directly for branches TAGE does not
// predict (unconditional, indirect) so history stays path-correlated.
func (t *TAGE) PushHistory(taken bool) {
	for i := 0; i < tageTables; i++ {
		old := t.hist.at(tageHistLens[i] - 1)
		t.idxFold[i].push(taken, old)
		t.tagFold[i].push(taken, old)
		t.tg2Fold[i].push(taken, old)
	}
	t.hist.push(taken)
	t.memoOK = false
}

// bump saturates ctr toward taken within [lo, hi].
func bump(ctr *int8, taken bool, lo, hi int8) {
	if taken {
		if *ctr < hi {
			*ctr++
		}
	} else if *ctr > lo {
		*ctr--
	}
}
