// Package eip implements the Entangling Instruction Prefetcher baseline
// (Ros & Jimborean, ISCA '21) the paper compares against, following the
// paper's own gem5 re-implementation (§6.5): the history buffer and the
// entangling table are maintained at commit to exclude wrong-path
// accesses, miss latencies are captured at fetch and consumed at commit to
// compute entangling distances, and full addresses are stored.
//
// Two variants exist: the bounded EIP(S) with a set-associative entangling
// table of S KB, and EIP-Analytical with an unbounded table (the paper's
// performance-oriented upper bound, >200KB).
package eip

import (
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

// Config parameterises EIP.
type Config struct {
	// HistorySize is the commit-order history buffer depth. The paper
	// found 40 entries as good as 1024.
	HistorySize int
	// Sets and Ways size the bounded entangling table. Sets == 0 selects
	// the analytical (unbounded) model.
	Sets, Ways int
	// TargetsPerEntry is the number of destination lines entangled per
	// source entry in the bounded table.
	TargetsPerEntry int
	// TagBits sizes the bounded table's partial tag.
	TagBits int
}

// dstAddrBits is the stored destination address width for storage
// accounting, matching the paper's 34-bit physical line addresses.
const dstAddrBits = 34

// DefaultConfig returns the bounded EIP(46)-class configuration used in
// the paper's headline comparison: a 46KB entangling table.
func DefaultConfig() Config {
	return Config{
		HistorySize:     40,
		Sets:            1192, // 1192 sets × 4 ways × 79 bits ≈ 46KB
		Ways:            4,
		TargetsPerEntry: 2,
		TagBits:         10,
	}
}

// AnalyticalConfig returns the unbounded EIP-Analytical model.
func AnalyticalConfig() Config {
	return Config{HistorySize: 40, TargetsPerEntry: 8}
}

// StorageKB reports the entangling-table budget; the analytical model
// reports the paper's ">200KB" nominal 237KB for Figure 15-style plots.
func (c Config) StorageKB() float64 {
	if c.Sets == 0 {
		return 237
	}
	bitsPerEntry := c.TagBits + 1 + c.TargetsPerEntry*dstAddrBits
	return float64(c.Sets*c.Ways*bitsPerEntry) / 8192.0
}

// Stats counts EIP-specific events.
type Stats = checkpoint.EIPStats

// EIP is the entangling prefetcher.
type EIP struct {
	cfg  Config
	hist []checkpoint.EIPHistEntry // ring, newest at (head-1)
	head int
	size int

	sets [][]checkpoint.EIPEntryState // bounded table
	anal map[isa.Addr][]isa.Addr      // analytical unbounded table
	tick uint32

	Stats Stats
}

// New builds an EIP instance; zero-value fields fall back to defaults.
func New(cfg Config) *EIP {
	if cfg.HistorySize == 0 {
		cfg.HistorySize = 40
	}
	if cfg.TargetsPerEntry == 0 {
		cfg.TargetsPerEntry = 2
	}
	if cfg.TagBits == 0 {
		cfg.TagBits = 10
	}
	e := &EIP{cfg: cfg, hist: make([]checkpoint.EIPHistEntry, cfg.HistorySize)}
	if cfg.Sets > 0 {
		e.sets = make([][]checkpoint.EIPEntryState, cfg.Sets)
		for i := range e.sets {
			ways := make([]checkpoint.EIPEntryState, cfg.Ways)
			for w := range ways {
				ways[w].Dsts = make([]isa.Addr, 0, cfg.TargetsPerEntry)
			}
			e.sets[i] = ways
		}
	} else {
		e.anal = make(map[isa.Addr][]isa.Addr)
	}
	return e
}

// Name implements prefetch.Prefetcher.
func (e *EIP) Name() string {
	if e.cfg.Sets == 0 {
		return "eip-analytical"
	}
	return "eip"
}

// StorageKB implements prefetch.Prefetcher.
func (e *EIP) StorageKB() float64 { return e.cfg.StorageKB() }

// OnFTQInsert implements prefetch.Prefetcher: a predicted access to a
// source line prefetches every line entangled with it.
func (e *EIP) OnFTQInsert(block isa.Addr, out []prefetch.Request) []prefetch.Request {
	e.Stats.Lookups++
	src := block.Line()
	if e.anal != nil {
		if dsts, ok := e.anal[src]; ok {
			e.Stats.Hits++
			for _, d := range dsts {
				out = append(out, prefetch.Request{Line: d, Trigger: prefetch.TriggerNone})
			}
		}
		return out
	}
	set, tag := e.indexTag(src)
	for w := range e.sets[set] {
		te := &e.sets[set][w]
		if te.Valid && te.Tag == tag {
			e.Stats.Hits++
			e.tick++
			te.LRU = e.tick
			for _, d := range te.Dsts {
				out = append(out, prefetch.Request{Line: d, Trigger: prefetch.TriggerNone})
			}
			break
		}
	}
	return out
}

// OnLineRetired implements prefetch.Prefetcher: record the committed line
// access in the history buffer and, when the line missed, entangle it with
// the line accessed approximately its fill latency earlier.
func (e *EIP) OnLineRetired(ev prefetch.RetireEvent) {
	if ev.Missed && ev.FetchLatency > 0 {
		if src, ok := e.findSource(ev.FetchCycle - ev.FetchLatency); ok && src != ev.Line {
			e.entangle(src, ev.Line)
		} else if !ok {
			e.Stats.NoSource++
		}
	}
	e.hist[e.head] = checkpoint.EIPHistEntry{Line: ev.Line, Cycle: ev.FetchCycle}
	e.head = (e.head + 1) % len(e.hist)
	if e.size < len(e.hist) {
		e.size++
	}
}

// findSource returns the history entry whose fetch cycle is closest to
// wantCycle — the access that, had it prefetched the missing line, would
// have hidden the full latency.
func (e *EIP) findSource(wantCycle int64) (isa.Addr, bool) {
	best := -1
	var bestDist int64 = 1 << 62
	for i := 0; i < e.size; i++ {
		h := &e.hist[(e.head-1-i+len(e.hist))%len(e.hist)]
		d := h.Cycle - wantCycle
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = (e.head-1-i+len(e.hist))%len(e.hist), d
		}
	}
	if best < 0 {
		return 0, false
	}
	return e.hist[best].Line, true
}

func (e *EIP) indexTag(src isa.Addr) (int, uint32) {
	ln := uint64(src) >> isa.LineShift
	set := int(ln % uint64(e.cfg.Sets))
	tag := uint32(ln/uint64(e.cfg.Sets)) & ((1 << e.cfg.TagBits) - 1)
	return set, tag
}

func (e *EIP) entangle(src, dst isa.Addr) {
	e.Stats.Entangled++
	if e.anal != nil {
		dsts := e.anal[src]
		for _, d := range dsts {
			if d == dst {
				return
			}
		}
		if len(dsts) >= e.cfg.TargetsPerEntry {
			copy(dsts, dsts[1:])
			dsts[len(dsts)-1] = dst
			e.anal[src] = dsts
			return
		}
		e.anal[src] = append(dsts, dst)
		return
	}
	set, tag := e.indexTag(src)
	ways := e.sets[set]
	e.tick++
	var te *checkpoint.EIPEntryState
	for w := range ways {
		if ways[w].Valid && ways[w].Tag == tag {
			te = &ways[w]
			break
		}
	}
	if te == nil {
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
		te = &ways[victim]
		te.Valid = true
		te.Tag = tag
		te.Dsts = te.Dsts[:0]
	}
	te.LRU = e.tick
	for _, d := range te.Dsts {
		if d == dst {
			return
		}
	}
	if len(te.Dsts) >= e.cfg.TargetsPerEntry {
		copy(te.Dsts, te.Dsts[1:])
		te.Dsts[len(te.Dsts)-1] = dst
		return
	}
	te.Dsts = append(te.Dsts, dst)
}

// ResetStats zeroes the counters while keeping table state warm (used at
// the end of the measurement warmup window).
func (e *EIP) ResetStats() { e.Stats = Stats{} }
