package core

import (
	"pdip/internal/bpu"
	"pdip/internal/cache"
	"pdip/internal/prefetch"
	"pdip/internal/stats"
)

// Result is an immutable snapshot of one run's counters plus the derived
// metrics the paper reports.
type Result struct {
	// Core holds pipeline-level counters (cycles, instructions, FEC
	// machinery, top-down slots).
	Core stats.Core
	// Per-level cache counters.
	L1I, L1D, L2, L3 cache.Stats
	// PQ holds prefetch-queue issue accounting.
	PQ prefetch.Stats
	// BPU holds branch prediction accounting.
	BPU bpu.Stats

	// PrefetcherName and PrefetcherKB identify the prefetcher under test.
	PrefetcherName string
	PrefetcherKB   float64
	// BTBKB is the BTB storage (Figure 15 accounting).
	BTBKB float64
}

// Result snapshots the current counters.
func (co *Core) Result() Result {
	return Result{
		Core:           co.stats,
		L1I:            co.hier.L1I.Stats,
		L1D:            co.hier.L1D.Stats,
		L2:             co.hier.L2.Stats,
		L3:             co.hier.L3.Stats,
		PQ:             co.pq.Stats,
		BPU:            co.bp.Stats,
		PrefetcherName: co.pf.Name(),
		PrefetcherKB:   co.pf.StorageKB(),
		BTBKB:          co.bp.Btb.StorageKB(),
	}
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 { return r.Core.IPC() }

// L1IMPKI returns L1 instruction-side miss traffic per kilo-instruction,
// counting every fill (demand, FDIP prime, prefetch) like the paper's FDIP
// baseline does — with a decoupled front-end most L1I misses are absorbed
// by prefetch-initiated fills rather than demand misses.
func (r *Result) L1IMPKI() float64 { return r.Core.PerKilo(r.L1I.Fills) }

// L2IMPKI returns instruction-side L2 misses per kilo-instruction.
func (r *Result) L2IMPKI() float64 { return r.Core.PerKilo(r.L2.InstMisses) }

// L2DMPKI returns data-side L2 misses per kilo-instruction.
func (r *Result) L2DMPKI() float64 { return r.Core.PerKilo(r.L2.DataMisses) }

// L3MPKI returns L3 misses per kilo-instruction.
func (r *Result) L3MPKI() float64 { return r.Core.PerKilo(r.L3.Misses) }

// PPKI returns prefetches issued per kilo-instruction (Table 4).
func (r *Result) PPKI() float64 { return r.Core.PerKilo(r.PQ.Issued) }

// PrefetchAccuracy returns the fraction of issued prefetches that were
// demand-accessed before eviction (Table 4's accuracy definition).
func (r *Result) PrefetchAccuracy() float64 {
	if r.L1I.PrefetchFills == 0 {
		return 0
	}
	return float64(r.L1I.UsefulPrefetches) / float64(r.L1I.PrefetchFills)
}

// LatePrefetchRate returns the fraction of useful prefetches that arrived
// late (demand found the line still in flight; Figure 11's partial hits).
func (r *Result) LatePrefetchRate() float64 {
	if r.L1I.UsefulPrefetches == 0 {
		return 0
	}
	return float64(r.L1I.LatePrefetches) / float64(r.L1I.UsefulPrefetches)
}

// UselessPrefetchPKI returns prefetched-but-evicted-unused lines per
// kilo-instruction (§7.3 pollution discussion).
func (r *Result) UselessPrefetchPKI() float64 { return r.Core.PerKilo(r.L1I.UselessPrefetches) }

// FECLinePct returns the FEC share of retired line episodes (Figure 4,
// first bar).
func (r *Result) FECLinePct() float64 {
	if r.Core.LinesRetired == 0 {
		return 0
	}
	return float64(r.Core.FECLines) / float64(r.Core.LinesRetired)
}

// FECStallShare returns the share of decode starvation cycles caused by
// FEC lines (Figure 4, second bar).
func (r *Result) FECStallShare() float64 {
	if r.Core.DecodeStarvedCycles == 0 {
		return 0
	}
	return float64(r.Core.FECStallCycles) / float64(r.Core.DecodeStarvedCycles)
}

// TriggerDistribution returns the mispredict-trigger and last-taken-trigger
// shares of issued prefetches (Figure 16). Prefetchers without trigger
// classes report zeros.
func (r *Result) TriggerDistribution() (mispredict, lastTaken float64) {
	m := float64(r.PQ.ByTrigger[prefetch.TriggerMispredict])
	l := float64(r.PQ.ByTrigger[prefetch.TriggerLastTaken])
	if m+l == 0 {
		return 0, 0
	}
	return m / (m + l), l / (m + l)
}
