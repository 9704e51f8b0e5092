// Package fnlmma implements a prefetcher inspired by Seznec's FNL+MMA
// (the IPC-1 winner the paper's §8 surveys): Footprint Next Line plus
// Multiple Miss Ahead.
//
//   - FNL: when a line misses, the next few sequential lines are judged
//     "worth" prefetching by a footprint table of per-line worth bits,
//     trained by whether those neighbours were actually used.
//   - MMA: a miss-ahead table chains miss N to miss N+Distance, so seeing
//     one miss prefetches the misses expected shortly after it — enough
//     lead to hide the fill latency.
//
// This is an honest simplification of the championship design (no shadow
// I-cache; worth is trained from retirement instead), sized to the same
// storage class as the bounded prefetchers in this repository.
package fnlmma

import (
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

// Config sizes the two tables.
type Config struct {
	// WorthEntries sizes the FNL footprint table (direct-mapped).
	WorthEntries int
	// NextLines is the FNL degree (the paper's FNL looks 5 ahead).
	NextLines int
	// MMAEntries sizes the miss-ahead table (direct-mapped).
	MMAEntries int
	// Distance is how many misses ahead MMA predicts.
	Distance int
}

// DefaultConfig returns a ≈40KB-class configuration.
func DefaultConfig() Config {
	return Config{WorthEntries: 1 << 13, NextLines: 4, MMAEntries: 1 << 12, Distance: 4}
}

// StorageKB reports the metadata budget: worth bits plus full 34-bit
// targets in the MMA table.
func (c Config) StorageKB() float64 {
	bits := c.WorthEntries*c.NextLines + c.MMAEntries*(34+10)
	return float64(bits) / 8192.0
}

// Stats counts FNL+MMA events.
type Stats = checkpoint.FNLMMAStats

// FNLMMA is the prefetcher.
type FNLMMA struct {
	cfg Config

	// worth holds per-line per-offset worth bits (bit k: line+k+1 useful).
	worth []uint8
	// mma maps a miss line to the line that missed Distance misses later.
	mmaTag []uint32
	mmaDst []isa.Addr
	// missRing holds the last Distance miss lines.
	missRing []isa.Addr
	missHead int

	pending []prefetch.Request

	Stats Stats
}

// New builds an FNL+MMA instance.
func New(cfg Config) *FNLMMA {
	if cfg.WorthEntries == 0 {
		cfg = DefaultConfig()
	}
	return &FNLMMA{
		cfg:      cfg,
		worth:    make([]uint8, cfg.WorthEntries),
		mmaTag:   make([]uint32, cfg.MMAEntries),
		mmaDst:   make([]isa.Addr, cfg.MMAEntries),
		missRing: make([]isa.Addr, cfg.Distance),
	}
}

// Name implements prefetch.Prefetcher.
func (f *FNLMMA) Name() string { return "fnl+mma" }

// StorageKB implements prefetch.Prefetcher.
func (f *FNLMMA) StorageKB() float64 { return f.cfg.StorageKB() }

func (f *FNLMMA) worthIdx(line isa.Addr) int {
	return int((uint64(line) >> isa.LineShift) % uint64(f.cfg.WorthEntries))
}

func (f *FNLMMA) mmaIdx(line isa.Addr) (int, uint32) {
	ln := uint64(line) >> isa.LineShift
	return int(ln % uint64(f.cfg.MMAEntries)), uint32(ln/uint64(f.cfg.MMAEntries)) & 0x3ff
}

// OnFTQInsert implements prefetch.Prefetcher: accesses train the footprint
// worth bits of their predecessors (the neighbour was used).
func (f *FNLMMA) OnFTQInsert(block isa.Addr, out []prefetch.Request) []prefetch.Request {
	line := block.Line()
	for k := 1; k <= f.cfg.NextLines; k++ {
		prev := line - isa.Addr(k*isa.LineSize)
		f.worth[f.worthIdx(prev)] |= 1 << (k - 1)
		f.Stats.Trained++
	}
	return out
}

// OnLineRetired implements prefetch.Prefetcher: misses fire FNL (worthy
// next lines) and MMA (the recorded miss Distance ahead), and train the
// miss-ahead chain.
func (f *FNLMMA) OnLineRetired(ev prefetch.RetireEvent) {
	if !ev.Missed {
		return
	}
	line := ev.Line

	// FNL: prefetch the worthy neighbours.
	w := f.worth[f.worthIdx(line)]
	for k := 1; k <= f.cfg.NextLines; k++ {
		if w&(1<<(k-1)) != 0 {
			f.pending = append(f.pending, prefetch.Request{Line: line + isa.Addr(k*isa.LineSize)})
			f.Stats.FNLEmitted++
		}
	}

	// MMA: prefetch the miss expected Distance misses from now.
	idx, tag := f.mmaIdx(line)
	if f.mmaTag[idx] == tag && f.mmaDst[idx] != 0 {
		f.pending = append(f.pending, prefetch.Request{Line: f.mmaDst[idx]})
		f.Stats.MMAEmitted++
	}

	// Train: the miss Distance-back now knows its successor.
	old := f.missRing[f.missHead]
	if old != 0 {
		oi, ot := f.mmaIdx(old)
		f.mmaTag[oi] = ot
		f.mmaDst[oi] = line
	}
	f.missRing[f.missHead] = line
	f.missHead = (f.missHead + 1) % len(f.missRing)
}

// TakePending implements prefetch.RetireEmitter.
func (f *FNLMMA) TakePending(out []prefetch.Request) []prefetch.Request {
	out = append(out, f.pending...)
	f.pending = f.pending[:0]
	return out
}

// ResetStats zeroes counters, keeping table state warm.
func (f *FNLMMA) ResetStats() { f.Stats = Stats{} }
