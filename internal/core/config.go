// Package core assembles the whole simulated core: the synthetic program
// and its oracle walker, the BPU-driven decoupled front-end (IAG, FTQ,
// IFU), the cache hierarchy, the simple out-of-order back-end, and the
// pluggable prefetcher with its prefetch queue. The per-cycle loop in
// core.go implements the FEC (front-end criticality) machinery the paper
// builds PDIP and EMISSARY on.
package core

import (
	"fmt"

	"pdip/internal/bpu"
	"pdip/internal/mem"
	"pdip/internal/prefetch"
)

// Config parameterises one simulation.
type Config struct {
	// Seed drives every stochastic decision not already owned by a
	// subsystem (data-address stream, EMISSARY promotion coin).
	Seed uint64

	// Mem configures the cache hierarchy (Table 1 defaults).
	Mem mem.Config
	// BPU configures the branch prediction unit.
	BPU bpu.Config

	// FTQDepth is the fetch target queue depth (Table 1: 24 entries).
	FTQDepth int
	// PQDepth is the prefetch queue depth (Table 1: 40 cache lines).
	PQDepth int
	// MaxEntryInsts caps instructions per FTQ entry (basic-block cap).
	MaxEntryInsts int
	// IAGWidth is the number of basic blocks the BPU predicts per cycle
	// (Golden Cove-class front-ends predict two). Without prediction
	// bandwidth above the fetch drain rate the FTQ could never refill
	// after a flush, and FDIP would hide nothing.
	IAGWidth int
	// FetchWidth is the number of ready FTQ entries the IFU can deliver
	// to decode per cycle.
	FetchWidth int
	// DecodeWidth and RetireWidth are the pipeline widths (Table 1: 12).
	DecodeWidth, RetireWidth int
	// ROBSize is the reorder buffer capacity (Table 1: 512).
	ROBSize int
	// DecodeQDepth bounds the fetch/decode buffer between IFU and ROB.
	DecodeQDepth int

	// DecodePipeLat is the fetch-to-allocate pipeline depth in cycles.
	DecodePipeLat int
	// ExecLat is the generic execution latency.
	ExecLat int
	// BranchResolveLat is allocate-to-execute latency for branches; a
	// mispredict resteers the front-end this many cycles after decode.
	BranchResolveLat int
	// ResteerPenalty is the flush/redirect bubble before the IAG resumes.
	ResteerPenalty int
	// ResteerShadowBlocks is how many correct-path FTQ entries after a
	// resteer are considered fetched "in the wake of" the resteer and
	// carry its trigger for FEC association (§4.2).
	ResteerShadowBlocks int
	// HighCostThreshold is the starvation-cycle bound above which an FEC
	// line is high cost (§3: >10 cycles).
	HighCostThreshold int

	// MemOpFrac is the fraction of instructions that access data memory.
	MemOpFrac float64
	// DataHotLines/DataColdLines/DataHotFrac shape the synthetic data
	// stream: DataHotFrac of accesses hit a DataHotLines-lines hot set,
	// the rest spread over DataColdLines lines.
	DataHotLines, DataColdLines int
	DataHotFrac                 float64

	// EmissaryPromoteProb promotes FEC-qualified lines with this
	// probability when EMISSARY (or FEC-Ideal) is active (§6.5: 1/32).
	EmissaryPromoteProb float64
	// Emissary enables the EMISSARY L2 replacement policy; the protected
	// way count itself lives in Mem.L2.ProtectedWays.
	Emissary bool

	// Prefetcher is the pluggable instruction prefetcher; nil runs the
	// FDIP-only baseline.
	Prefetcher prefetch.Prefetcher
	// ZeroCostPrefetch makes PQ prefetches install instantly (§7.2).
	ZeroCostPrefetch bool
	// PQReserveMSHRs is the MSHR headroom the PQ leaves for demand
	// fetches (§5: a threshold of 2 works best). Negative disables the
	// reserve entirely (ablation).
	PQReserveMSHRs int
	// DisableFDIPPrefetch turns off FTQ-driven L1I priming, degrading the
	// front-end to a coupled fetch engine (the paper's no-FDIP ablation:
	// FDIP is worth 27.1% over a non-FDIP O3 core, §6.2).
	DisableFDIPPrefetch bool
	// FECIdeal makes every EMISSARY-marked FEC line hit with L1I latency
	// (the FEC-Ideal ceiling of §3).
	FECIdeal bool

	// CollectSets classifies each measured FEC episode (§7.3) into the
	// core.fec.req_age.* counters (age of the line's last prefetch request)
	// and, under PDIP, core.fec.holds.* (whether the table held its
	// (trigger, line) pair). Off by default; all seven then read 0.
	CollectSets bool

	// MaxCyclesPerInst aborts a run whose cycle count explodes (guards
	// against configuration errors); 0 uses a generous default.
	MaxCyclesPerInst int

	// NoFastForward disables idle-cycle fast-forward (see Core.step): the
	// clock then ticks every cycle individually. Metrics are bit-identical
	// either way — the flag exists to verify exactly that, and as an
	// escape hatch when debugging the stage event bounds themselves.
	NoFastForward bool
}

// DefaultConfig returns the paper's Golden Cove-like baseline (Table 1)
// with a neutral synthetic data stream.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		Mem:                 mem.DefaultConfig(),
		BPU:                 bpu.DefaultConfig(),
		FTQDepth:            24,
		PQDepth:             40,
		MaxEntryInsts:       16,
		IAGWidth:            2,
		FetchWidth:          2,
		DecodeWidth:         12,
		RetireWidth:         12,
		ROBSize:             512,
		DecodeQDepth:        64,
		DecodePipeLat:       4,
		ExecLat:             3,
		BranchResolveLat:    8,
		ResteerPenalty:      4,
		ResteerShadowBlocks: 3,
		HighCostThreshold:   10,
		PQReserveMSHRs:      2,
		MemOpFrac:           0.30,
		DataHotLines:        512,
		DataColdLines:       1 << 16,
		DataHotFrac:         0.90,
		EmissaryPromoteProb: 1.0 / 32.0,
		MaxCyclesPerInst:    0,
	}
}

// Validate reports configuration errors before they become simulator bugs.
func (c *Config) Validate() error {
	switch {
	case c.FTQDepth <= 0:
		return fmt.Errorf("core: FTQDepth must be positive")
	case c.DecodeWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("core: pipeline widths must be positive")
	case c.ROBSize <= 0:
		return fmt.Errorf("core: ROBSize must be positive")
	case c.MemOpFrac < 0 || c.MemOpFrac > 1:
		return fmt.Errorf("core: MemOpFrac must be in [0,1]")
	case c.EmissaryPromoteProb < 0 || c.EmissaryPromoteProb > 1:
		return fmt.Errorf("core: EmissaryPromoteProb must be in [0,1]")
	case c.Emissary && c.Mem.L2.ProtectedWays <= 0:
		return fmt.Errorf("core: Emissary enabled but Mem.L2.ProtectedWays is 0")
	case !c.Emissary && !c.FECIdeal && c.Mem.L2.ProtectedWays > 0:
		return fmt.Errorf("core: Mem.L2.ProtectedWays set without Emissary")
	}
	return nil
}
