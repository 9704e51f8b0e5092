package bpu

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// CaptureCheckpoint captures the full BPU: TAGE and ITTAGE tables with
// their global histories and folded-history accumulators, the BTB, the
// RAS, and the prediction stats.
func (b *BPU) CaptureCheckpoint() checkpoint.BPUState {
	return checkpoint.BPUState{
		TAGE:   b.Tage.captureCheckpoint(),
		ITTAGE: b.Ittage.captureCheckpoint(),
		BTB:    b.Btb.captureCheckpoint(),
		RAS:    b.Ras.captureCheckpoint(),
		Stats:  b.Stats,
	}
}

// RestoreCheckpoint overwrites the BPU from a captured state. The
// receiver must have been built with the same geometry (table sizes are
// fixed; BTB capacity and RAS depth are checked).
func (b *BPU) RestoreCheckpoint(st checkpoint.BPUState) error {
	if err := b.Tage.restoreCheckpoint(st.TAGE); err != nil {
		return err
	}
	if err := b.Ittage.restoreCheckpoint(st.ITTAGE); err != nil {
		return err
	}
	if err := b.Btb.restoreCheckpoint(st.BTB); err != nil {
		return err
	}
	if err := b.Ras.restoreCheckpoint(st.RAS); err != nil {
		return err
	}
	b.Stats = st.Stats
	return nil
}

// captureCheckpoint clones the TAGE tables, history, folded-hash
// accumulators (only the compressed value — fold geometry is rebuilt by
// construction), and allocation state. The index/tag memo is skipped: it
// is a pure cache invalidated by the next PushHistory, and a restored
// predictor starts with memoOK == false, which is always safe.
func (t *TAGE) captureCheckpoint() checkpoint.TAGEState {
	st := checkpoint.TAGEState{
		Base:       append([]int8(nil), t.base...),
		Tables:     make([][]checkpoint.TAGEEntry, tageTables),
		HistBits:   append([]bool(nil), t.hist.bits[:]...),
		HistHead:   t.hist.head,
		IdxFold:    make([]uint32, tageTables),
		TagFold:    make([]uint32, tageTables),
		Tg2Fold:    make([]uint32, tageTables),
		UseAltOnNa: t.useAltOnNa,
		AllocSeed:  t.allocSeed,
	}
	for i := range t.tables {
		st.Tables[i] = append([]checkpoint.TAGEEntry(nil), t.tables[i]...)
		st.IdxFold[i] = t.idxFold[i].comp
		st.TagFold[i] = t.tagFold[i].comp
		st.Tg2Fold[i] = t.tg2Fold[i].comp
	}
	return st
}

func (t *TAGE) restoreCheckpoint(st checkpoint.TAGEState) error {
	if len(st.Base) != len(t.base) || len(st.Tables) != tageTables ||
		len(st.HistBits) != maxHist ||
		len(st.IdxFold) != tageTables || len(st.TagFold) != tageTables || len(st.Tg2Fold) != tageTables {
		return fmt.Errorf("bpu: TAGE checkpoint geometry mismatch")
	}
	for i := range t.tables {
		if len(st.Tables[i]) != len(t.tables[i]) {
			return fmt.Errorf("bpu: TAGE table %d has %d checkpoint entries, want %d", i, len(st.Tables[i]), len(t.tables[i]))
		}
	}
	copy(t.base, st.Base)
	for i := range t.tables {
		copy(t.tables[i], st.Tables[i])
		t.idxFold[i].comp = st.IdxFold[i]
		t.tagFold[i].comp = st.TagFold[i]
		t.tg2Fold[i].comp = st.Tg2Fold[i]
	}
	copy(t.hist.bits[:], st.HistBits)
	t.hist.head = st.HistHead
	t.useAltOnNa = st.UseAltOnNa
	t.allocSeed = st.AllocSeed
	t.memoOK = false
	t.memoPC = 0
	t.memoIdx = [tageTables]int32{}
	t.memoTag = [tageTables]uint16{}
	return nil
}

// captureCheckpoint mirrors TAGE's: tables, history, fold accumulators,
// allocation seed; the memo is skipped for the same reason.
func (it *ITTAGE) captureCheckpoint() checkpoint.ITTAGEState {
	st := checkpoint.ITTAGEState{
		Base:      append([]isa.Addr(nil), it.base...),
		Tables:    make([][]checkpoint.ITTAGEEntry, ittageTables),
		HistBits:  append([]bool(nil), it.hist.bits[:]...),
		HistHead:  it.hist.head,
		IdxFold:   make([]uint32, ittageTables),
		TagFold:   make([]uint32, ittageTables),
		AllocSeed: it.allocSeed,
	}
	for i := range it.tables {
		st.Tables[i] = append([]checkpoint.ITTAGEEntry(nil), it.tables[i]...)
		st.IdxFold[i] = it.idxFold[i].comp
		st.TagFold[i] = it.tagFold[i].comp
	}
	return st
}

func (it *ITTAGE) restoreCheckpoint(st checkpoint.ITTAGEState) error {
	if len(st.Base) != len(it.base) || len(st.Tables) != ittageTables ||
		len(st.HistBits) != maxHist ||
		len(st.IdxFold) != ittageTables || len(st.TagFold) != ittageTables {
		return fmt.Errorf("bpu: ITTAGE checkpoint geometry mismatch")
	}
	for i := range it.tables {
		if len(st.Tables[i]) != len(it.tables[i]) {
			return fmt.Errorf("bpu: ITTAGE table %d has %d checkpoint entries, want %d", i, len(st.Tables[i]), len(it.tables[i]))
		}
	}
	copy(it.base, st.Base)
	for i := range it.tables {
		copy(it.tables[i], st.Tables[i])
		it.idxFold[i].comp = st.IdxFold[i]
		it.tagFold[i].comp = st.TagFold[i]
	}
	copy(it.hist.bits[:], st.HistBits)
	it.hist.head = st.HistHead
	it.allocSeed = st.AllocSeed
	it.memoOK = false
	it.memoPC = 0
	it.memoIdx = [ittageTables]int32{}
	it.memoTag = [ittageTables]uint16{}
	return nil
}

func (b *BTB) captureCheckpoint() checkpoint.BTBState {
	return checkpoint.BTBState{
		Sets:    len(b.entries) / btbWays,
		Ways:    btbWays,
		Entries: append([]checkpoint.BTBEntryState(nil), b.entries...),
		Tick:    b.tick,
	}
}

func (b *BTB) restoreCheckpoint(st checkpoint.BTBState) error {
	if sets := len(b.entries) / btbWays; st.Sets != sets || st.Ways != btbWays {
		return fmt.Errorf("bpu: BTB checkpoint geometry %dx%d, BTB is %dx%d", st.Sets, st.Ways, sets, btbWays)
	}
	if len(st.Entries) != len(b.entries) {
		return fmt.Errorf("bpu: BTB checkpoint has %d entries, want %d", len(st.Entries), len(b.entries))
	}
	copy(b.entries, st.Entries)
	b.tick = st.Tick
	return nil
}

func (r *RAS) captureCheckpoint() checkpoint.RASState {
	return checkpoint.RASState{
		Entries: append([]isa.Addr(nil), r.entries...),
		Top:     r.top,
		Depth:   r.depth,
	}
}

func (r *RAS) restoreCheckpoint(st checkpoint.RASState) error {
	if len(st.Entries) != len(r.entries) {
		return fmt.Errorf("bpu: RAS checkpoint depth %d, RAS is %d", len(st.Entries), len(r.entries))
	}
	if st.Top < 0 || st.Top >= len(r.entries) || st.Depth < 0 || st.Depth > len(r.entries) {
		return fmt.Errorf("bpu: RAS checkpoint top %d / depth %d outside a %d-entry stack", st.Top, st.Depth, len(r.entries))
	}
	copy(r.entries, st.Entries)
	r.top = st.Top
	r.depth = st.Depth
	return nil
}
