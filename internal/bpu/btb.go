package bpu

import (
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/recycle"
)

// btbWays is the BTB associativity; capacity is varied by set count.
const btbWays = 8

// BTBEntryBits is the storage cost of one BTB entry in bits, chosen so an
// 8K-entry BTB costs 119.01KB as reported in the paper's Table 1.
const BTBEntryBits = 119

// BTB is a set-associative branch target buffer indexed by branch PC. The
// IAG discovers branches in the predicted stream through the BTB: a taken
// branch missing here is invisible to the front-end until decode or
// execute, which is the paper's "BTB miss" resteer class.
type BTB struct {
	// entries is the table, set-major: way w of set s is s*btbWays + w.
	entries  []checkpoint.BTBEntryState
	setShift uint
	setMask  uint64
	tick     uint32
}

// NewBTB creates a BTB with the given total entry count, which must be a
// multiple of the fixed 8-way associativity and a power of two.
func NewBTB(entries int) *BTB {
	if entries < btbWays {
		entries = btbWays
	}
	numSets := entries / btbWays
	if numSets&(numSets-1) != 0 {
		panic("bpu: BTB entry count / 8 must be a power of two")
	}
	return &BTB{
		entries:  recycle.Make[[]checkpoint.BTBEntryState](numSets * btbWays),
		setShift: 1, // branch PCs are at least 2-byte aligned in practice
		setMask:  uint64(numSets - 1),
	}
}

// Release hands the table to the recycler and drops it.
func (b *BTB) Release() {
	recycle.Free(b.entries)
	b.entries = nil
}

// Entries returns the total entry capacity.
func (b *BTB) Entries() int { return len(b.entries) }

// StorageKB returns the BTB storage in kilobytes (Table 1 accounting).
func (b *BTB) StorageKB() float64 {
	return float64(b.Entries()*BTBEntryBits) / 8192.0
}

// setOf returns the ways of pc's set and pc's tag.
func (b *BTB) setOf(pc isa.Addr) ([]checkpoint.BTBEntryState, uint64) {
	v := uint64(pc) >> b.setShift
	base := int(v&b.setMask) * btbWays
	return b.entries[base : base+btbWays], v >> uint(popcount(b.setMask))
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Lookup probes the BTB for a branch at pc. On a hit it returns the stored
// target and branch kind.
func (b *BTB) Lookup(pc isa.Addr) (target isa.Addr, kind isa.BranchKind, hit bool) {
	set, tag := b.setOf(pc)
	for i := range set {
		e := &set[i]
		if e.Valid && e.Tag == tag {
			b.tick++
			e.LRU = b.tick
			return e.Target, e.Kind, true
		}
	}
	return 0, isa.NotBranch, false
}

// Insert installs or updates the entry for a taken branch at pc.
func (b *BTB) Insert(pc isa.Addr, target isa.Addr, kind isa.BranchKind) {
	set, tag := b.setOf(pc)
	b.tick++
	victim := 0
	var oldest uint32 = ^uint32(0)
	for i := range set {
		e := &set[i]
		if e.Valid && e.Tag == tag {
			e.Target = target
			e.Kind = kind
			e.LRU = b.tick
			return
		}
		if !e.Valid {
			victim = i
			oldest = 0
			continue
		}
		if e.LRU < oldest {
			victim, oldest = i, e.LRU
		}
	}
	set[victim] = checkpoint.BTBEntryState{Valid: true, Tag: tag, Target: target, Kind: kind, LRU: b.tick}
}

// RAS is a fixed-depth circular return address stack. Pushing beyond the
// capacity silently overwrites the oldest frame, so deeply nested call
// chains produce return mispredicts exactly as in hardware.
type RAS struct {
	entries []isa.Addr
	top     int // index of the current top
	depth   int // live entries, capped at len(entries)
}

// NewRAS returns a RAS with the given capacity.
func NewRAS(capacity int) *RAS {
	if capacity <= 0 {
		capacity = 32
	}
	return &RAS{entries: make([]isa.Addr, capacity)}
}

// Push records a return address.
func (r *RAS) Push(addr isa.Addr) {
	r.top = (r.top + 1) % len(r.entries)
	r.entries[r.top] = addr
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts the target of a return. With an empty (or overflowed) stack
// it returns 0, false.
func (r *RAS) Pop() (isa.Addr, bool) {
	if r.depth == 0 {
		return 0, false
	}
	addr := r.entries[r.top]
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return addr, true
}
