// Package rdip implements a Return-address-stack Directed Instruction
// Prefetcher in the spirit of Kolli, Saidi & Wenisch (MICRO '13), one of
// the context-signature baselines the paper's §8 surveys.
//
// The key observation of RDIP: the misses seen in a given calling context
// repeat the next time the same context recurs. The context is captured as
// a hash of the return address stack; a signature table maps each context
// to the lines that missed in it last time, and a context switch (call or
// return retiring) prefetches the new context's recorded miss set.
package rdip

import (
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
	"pdip/internal/recycle"
)

// Config sizes the signature table.
type Config struct {
	// Sets and Ways size the signature table.
	Sets, Ways int
	// LinesPerEntry caps the miss lines recorded per context.
	LinesPerEntry int
	// RASDepth is the depth of the prefetcher's private RAS mirror.
	RASDepth int
	// TagBits sizes the partial signature tag.
	TagBits int
}

// DefaultConfig returns a ≈32KB-class RDIP.
func DefaultConfig() Config {
	return Config{Sets: 512, Ways: 4, LinesPerEntry: 4, RASDepth: 16, TagBits: 10}
}

// StorageKB reports the signature-table budget (34-bit line addresses,
// matching the accounting used for PDIP and EIP).
func (c Config) StorageKB() float64 {
	bitsPerEntry := c.TagBits + 1 + c.LinesPerEntry*34
	return float64(c.Sets*c.Ways*bitsPerEntry) / 8192.0
}

// Stats counts RDIP events.
type Stats = checkpoint.RDIPStats

// RDIP is the prefetcher.
type RDIP struct {
	cfg  Config
	sets [][]checkpoint.RDIPEntryState
	// entries backs every set and lines every entry's Lines, so the table
	// is three recycled allocations (internal/recycle), not one per entry.
	entries []checkpoint.RDIPEntryState
	lines   []isa.Addr
	tick    uint32

	// ras mirrors the call stack for signature computation.
	ras []isa.Addr
	// sig is the current context signature.
	sig uint64

	pending []prefetch.Request

	Stats Stats
}

// New builds an RDIP instance.
func New(cfg Config) *RDIP {
	if cfg.Sets == 0 {
		cfg = DefaultConfig()
	}
	n, w, l := cfg.Sets*cfg.Ways, cfg.Ways, cfg.LinesPerEntry
	r := &RDIP{
		cfg:     cfg,
		sets:    recycle.Make[[][]checkpoint.RDIPEntryState](cfg.Sets),
		entries: recycle.Make[[]checkpoint.RDIPEntryState](n),
		lines:   recycle.Make[[]isa.Addr](n * l),
	}
	for i := range r.sets {
		r.sets[i] = r.entries[i*w : (i+1)*w : (i+1)*w]
	}
	for k := range r.entries {
		r.entries[k].Lines = r.lines[k*l : k*l : (k+1)*l]
	}
	return r
}

// Release hands the signature table to the recycler (internal/recycle)
// and drops it; the prefetcher must not be used afterwards.
func (r *RDIP) Release() {
	recycle.Free(r.sets)
	recycle.Free(r.entries)
	recycle.Free(r.lines)
	r.sets, r.entries, r.lines = nil, nil, nil
}

// Name implements prefetch.Prefetcher.
func (r *RDIP) Name() string { return "rdip" }

// StorageKB implements prefetch.Prefetcher.
func (r *RDIP) StorageKB() float64 { return r.cfg.StorageKB() }

// OnFTQInsert implements prefetch.Prefetcher: RDIP is context-driven, not
// access-driven, so the FTQ stream is not consulted.
func (r *RDIP) OnFTQInsert(_ isa.Addr, out []prefetch.Request) []prefetch.Request {
	return out
}

// OnLineRetired implements prefetch.Prefetcher: record misses under the
// current context signature.
func (r *RDIP) OnLineRetired(ev prefetch.RetireEvent) {
	if !ev.Missed {
		return
	}
	set, tag := r.indexTag()
	e := r.findOrAlloc(set, tag)
	for _, l := range e.Lines {
		if l == ev.Line {
			return
		}
	}
	if len(e.Lines) >= r.cfg.LinesPerEntry {
		copy(e.Lines, e.Lines[1:])
		e.Lines[len(e.Lines)-1] = ev.Line
	} else {
		e.Lines = append(e.Lines, ev.Line)
	}
	r.Stats.Recorded++
}

// OnCallReturn implements the core's call/return observer: update the RAS
// mirror and signature, and prefetch the new context's recorded misses.
func (r *RDIP) OnCallReturn(isCall bool, _ isa.Addr, returnAddr isa.Addr) {
	r.Stats.ContextSwitches++
	if isCall {
		if len(r.ras) < r.cfg.RASDepth {
			r.ras = append(r.ras, returnAddr)
		}
	} else if len(r.ras) > 0 {
		r.ras = r.ras[:len(r.ras)-1]
	}
	r.recomputeSig()

	set, tag := r.indexTag()
	for w := range r.sets[set] {
		e := &r.sets[set][w]
		if e.Valid && e.Tag == tag {
			r.Stats.Hits++
			r.tick++
			e.LRU = r.tick
			for _, l := range e.Lines {
				r.pending = append(r.pending, prefetch.Request{Line: l, Trigger: prefetch.TriggerNone})
			}
			return
		}
	}
}

// TakePending implements prefetch.RetireEmitter.
func (r *RDIP) TakePending(out []prefetch.Request) []prefetch.Request {
	out = append(out, r.pending...)
	r.pending = r.pending[:0]
	return out
}

// recomputeSig hashes the whole RAS (the original RDIP formulation).
func (r *RDIP) recomputeSig() {
	var h uint64 = 1469598103934665603
	for _, a := range r.ras {
		h ^= uint64(a) >> 2
		h *= 1099511628211
	}
	r.sig = h
}

func (r *RDIP) indexTag() (int, uint32) {
	set := int(r.sig % uint64(r.cfg.Sets))
	tag := uint32(r.sig/uint64(r.cfg.Sets)) & ((1 << r.cfg.TagBits) - 1)
	return set, tag
}

func (r *RDIP) findOrAlloc(set int, tag uint32) *checkpoint.RDIPEntryState {
	ways := r.sets[set]
	r.tick++
	for w := range ways {
		if ways[w].Valid && ways[w].Tag == tag {
			ways[w].LRU = r.tick
			return &ways[w]
		}
	}
	victim := 0
	var oldest uint32 = ^uint32(0)
	for w := range ways {
		if !ways[w].Valid {
			victim = w
			break
		}
		if ways[w].LRU < oldest {
			victim, oldest = w, ways[w].LRU
		}
	}
	e := &ways[victim]
	e.Valid = true
	e.Tag = tag
	e.LRU = r.tick
	e.Lines = e.Lines[:0]
	return e
}

// ResetStats zeroes counters, keeping table state warm.
func (r *RDIP) ResetStats() { r.Stats = Stats{} }
