package bpu

import (
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// ittageTables is the number of tagged ITTAGE components.
const ittageTables = 5

var ittageHistLens = [ittageTables]int{6, 14, 32, 72, 160}

const (
	ittageTagBits   = 11
	ittageEntryBits = 9 // 512 entries per tagged table
	ittageBaseBits  = 11
)

// ITTAGE predicts indirect branch targets with the same tagged geometric
// history organisation as TAGE (Seznec's ITTAGE), storing full targets in
// each entry plus a small tagless base table.
type ITTAGE struct {
	base    []isa.Addr // tagless last-target base table
	tables  [ittageTables][]checkpoint.ITTAGEEntry
	hist    history
	idxFold [ittageTables]foldedHist
	tagFold [ittageTables]foldedHist

	allocSeed uint64

	// memo caches per-table indices and tags for the last prepared
	// (pc, history) pair, exactly as in TAGE: Predict and Update for the
	// same indirect branch see the same history, so the folded hashes
	// need computing once per branch, not once per loop.
	memoPC  isa.Addr
	memoOK  bool
	memoIdx [ittageTables]int32
	memoTag [ittageTables]uint16
}

// NewITTAGE returns an ITTAGE predictor with the default (≈64KB-class)
// geometry.
func NewITTAGE() *ITTAGE {
	it := &ITTAGE{base: make([]isa.Addr, 1<<ittageBaseBits)}
	for i := range it.tables {
		it.tables[i] = make([]checkpoint.ITTAGEEntry, 1<<ittageEntryBits)
		it.idxFold[i] = newFolded(ittageHistLens[i], ittageEntryBits)
		it.tagFold[i] = newFolded(ittageHistLens[i], ittageTagBits)
	}
	return it
}

func (it *ITTAGE) index(table int, pc isa.Addr) int {
	v := uint32(pc>>1) ^ uint32(pc>>(1+ittageEntryBits)) ^ it.idxFold[table].comp ^ uint32(table*0x51ed)
	return int(v & ((1 << ittageEntryBits) - 1))
}

func (it *ITTAGE) tag(table int, pc isa.Addr) uint16 {
	v := uint32(pc>>1) ^ it.tagFold[table].comp ^ uint32(table*0x2c1b)
	return uint16(v & ((1 << ittageTagBits) - 1))
}

func (it *ITTAGE) baseIndex(pc isa.Addr) int {
	return int((pc >> 1) & ((1 << ittageBaseBits) - 1))
}

// prepare fills the index/tag memo for pc against the current history,
// reusing it when pc was already prepared since the last history shift.
func (it *ITTAGE) prepare(pc isa.Addr) {
	if it.memoOK && it.memoPC == pc {
		return
	}
	for i := 0; i < ittageTables; i++ {
		it.memoIdx[i] = int32(it.index(i, pc))
		it.memoTag[i] = it.tag(i, pc)
	}
	it.memoPC = pc
	it.memoOK = true
}

// Predict returns the predicted target for the indirect branch at pc and
// whether any component produced a prediction.
func (it *ITTAGE) Predict(pc isa.Addr) (isa.Addr, bool) {
	it.prepare(pc)
	for i := ittageTables - 1; i >= 0; i-- {
		e := &it.tables[i][it.memoIdx[i]]
		if e.Tag == it.memoTag[i] && e.Target != 0 {
			return e.Target, true
		}
	}
	if t := it.base[it.baseIndex(pc)]; t != 0 {
		return t, true
	}
	return 0, false
}

// Update trains the predictor with the actual target and shifts history.
func (it *ITTAGE) Update(pc isa.Addr, target isa.Addr) {
	it.prepare(pc)
	provider := -1
	var pidx int
	for i := ittageTables - 1; i >= 0; i-- {
		idx := int(it.memoIdx[i])
		e := &it.tables[i][idx]
		if e.Tag == it.memoTag[i] && e.Target != 0 {
			provider, pidx = i, idx
			break
		}
	}

	correct := false
	if provider >= 0 {
		e := &it.tables[provider][pidx]
		correct = e.Target == target
		if correct {
			if e.Ctr < 3 {
				e.Ctr++
			}
			if e.Useful < 3 {
				e.Useful++
			}
		} else {
			if e.Ctr > 0 {
				e.Ctr--
			} else {
				e.Target = target // replace once confidence exhausted
			}
			if e.Useful > 0 {
				e.Useful--
			}
		}
	} else {
		correct = it.base[it.baseIndex(pc)] == target
	}
	it.base[it.baseIndex(pc)] = target

	if !correct && provider < ittageTables-1 {
		it.allocate(pc, target, provider)
	}

	it.PushHistory(true)
}

func (it *ITTAGE) allocate(pc isa.Addr, target isa.Addr, provider int) {
	it.prepare(pc)
	start := provider + 1
	it.allocSeed = it.allocSeed*6364136223846793005 + 1442695040888963407
	if n := ittageTables - start; n > 1 && (it.allocSeed>>33)&1 == 1 {
		start++
	}
	for i := start; i < ittageTables; i++ {
		e := &it.tables[i][it.memoIdx[i]]
		if e.Useful == 0 {
			*e = checkpoint.ITTAGEEntry{Tag: it.memoTag[i], Target: target, Ctr: 1}
			return
		}
	}
	for i := start; i < ittageTables; i++ {
		e := &it.tables[i][it.memoIdx[i]]
		if e.Useful > 0 {
			e.Useful--
		}
	}
}

// PushHistory shifts one path bit into the global history. Callers push
// for non-indirect branches too so indirect history stays path-correlated.
func (it *ITTAGE) PushHistory(taken bool) {
	for i := 0; i < ittageTables; i++ {
		old := it.hist.at(ittageHistLens[i] - 1)
		it.idxFold[i].push(taken, old)
		it.tagFold[i].push(taken, old)
	}
	it.hist.push(taken)
	it.memoOK = false
}
