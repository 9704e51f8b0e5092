package core

import (
	"pdip/internal/metrics"
	"pdip/internal/stats"
)

// counters holds the registry-owned counters behind stats.Core, grouped
// by the pipeline stage that owns (increments) them. The stages increment
// through these pointers (resolved once at construction — no lookups or
// reflection on the hot path); Result() materialises the stats.Core value
// struct from them, so the snapshot API is a view over the registry.
// Registered metric names are stable across the stage decomposition: the
// grouping is an ownership structure, not a renaming.
type counters struct {
	pipe     pipeCounters
	retire   retireCounters
	resteer  resteerCounters
	decode   decodeCounters
	prefetch prefetchCounters
}

// pipeCounters is per-cycle bookkeeping owned by the cycle loop itself.
//
//lint:owner core.go
type pipeCounters struct {
	cycles *metrics.Counter
	// ftqOcc samples FTQ occupancy once per cycle (decoupling depth).
	ftqOcc *metrics.Histogram
}

// retireCounters is owned by the retire stage (instruction retirement and
// the FEC machinery evaluated there).
type retireCounters struct {
	instructions                   *metrics.Counter
	linesRetired                   *metrics.Counter
	fecLines, fecRepeatLines       *metrics.Counter
	highCostFECLines               *metrics.Counter
	highCostBackend                *metrics.Counter
	fecStallCycles, fecCoveredLate *metrics.Counter
	shadowCovered, nonFECStall     *metrics.Counter
}

// resteerCounters is owned by the resteer stage.
type resteerCounters struct {
	mispredict, btbMiss, ret *metrics.Counter
}

// decodeCounters is owned by the decode/allocate stage (issue-slot
// top-down accounting and starvation attribution happen there).
type decodeCounters struct {
	wrongPath                                    *metrics.Counter
	decodeStarved                                *metrics.Counter
	starvedOnMiss, starveNoEntry                 *metrics.Counter
	starvePipe, starveOther                      *metrics.Counter
	tdRetiring, tdBadSpec, tdFrontend, tdBackend *metrics.Counter
}

// prefetchCounters is shared by the two stages that enqueue prefetch
// requests (predict and prefetch-drain): both apply the FTQ duplicate
// suppression and account drops to the same counter.
//
//lint:owner stage_predict.go stage_prefetch.go
type prefetchCounters struct {
	pfDroppedFTQ *metrics.Counter
}

func newCounters(reg *metrics.Registry) counters {
	return counters{
		pipe: pipeCounters{
			cycles: reg.Counter("core.cycles"),
			ftqOcc: reg.Histogram("frontend.ftq_occupancy", 0, 2, 4, 8, 12, 16, 20, 24),
		},
		retire: retireCounters{
			instructions:     reg.Counter("core.instructions"),
			linesRetired:     reg.Counter("core.lines_retired"),
			fecLines:         reg.Counter("core.fec.lines"),
			fecRepeatLines:   reg.Counter("core.fec.repeat_lines"),
			highCostFECLines: reg.Counter("core.fec.high_cost_lines"),
			highCostBackend:  reg.Counter("core.fec.high_cost_backend"),
			fecStallCycles:   reg.Counter("core.fec.stall_cycles"),
			fecCoveredLate:   reg.Counter("core.fec.covered_late"),
			shadowCovered:    reg.Counter("core.fec.shadow_covered"),
			nonFECStall:      reg.Counter("core.fec.non_fec_stall_cycles"),
		},
		resteer: resteerCounters{
			mispredict: reg.Counter("frontend.resteer.mispredict"),
			btbMiss:    reg.Counter("frontend.resteer.btb_miss"),
			ret:        reg.Counter("frontend.resteer.return"),
		},
		decode: decodeCounters{
			wrongPath:     reg.Counter("core.wrong_path_instructions"),
			decodeStarved: reg.Counter("frontend.decode_starved_cycles"),
			starvedOnMiss: reg.Counter("frontend.starve.on_miss"),
			starveNoEntry: reg.Counter("frontend.starve.no_entry"),
			starvePipe:    reg.Counter("frontend.starve.pipe"),
			starveOther:   reg.Counter("frontend.starve.other"),
			tdRetiring:    reg.Counter("core.topdown.retiring"),
			tdBadSpec:     reg.Counter("core.topdown.bad_speculation"),
			tdFrontend:    reg.Counter("core.topdown.frontend_bound"),
			tdBackend:     reg.Counter("core.topdown.backend_bound"),
		},
		prefetch: prefetchCounters{
			pfDroppedFTQ: reg.Counter("frontend.pf_dropped_ftq"),
		},
	}
}

// statsCore materialises the stats.Core snapshot from the registry
// counters — the view the Result API and all derived metrics sit on.
func (ct *counters) statsCore() stats.Core {
	return stats.Core{
		Cycles:                ct.pipe.cycles.Load(),
		Instructions:          ct.retire.instructions.Load(),
		WrongPathInstructions: ct.decode.wrongPath.Load(),
		ResteerMispredict:     ct.resteer.mispredict.Load(),
		ResteerBTBMiss:        ct.resteer.btbMiss.Load(),
		ResteerReturn:         ct.resteer.ret.Load(),
		DecodeStarvedCycles:   ct.decode.decodeStarved.Load(),
		StarvedOnMiss:         ct.decode.starvedOnMiss.Load(),
		StarveNoEntry:         ct.decode.starveNoEntry.Load(),
		StarvePipe:            ct.decode.starvePipe.Load(),
		StarveOther:           ct.decode.starveOther.Load(),
		LinesRetired:          ct.retire.linesRetired.Load(),
		FECLines:              ct.retire.fecLines.Load(),
		FECRepeatLines:        ct.retire.fecRepeatLines.Load(),
		HighCostFECLines:      ct.retire.highCostFECLines.Load(),
		HighCostBackend:       ct.retire.highCostBackend.Load(),
		FECStallCycles:        ct.retire.fecStallCycles.Load(),
		FECCoveredLate:        ct.retire.fecCoveredLate.Load(),
		ShadowCovered:         ct.retire.shadowCovered.Load(),
		NonFECStall:           ct.retire.nonFECStall.Load(),
		PFDroppedFTQ:          ct.prefetch.pfDroppedFTQ.Load(),
		TopDown: stats.TopDown{
			Retiring:       ct.decode.tdRetiring.Load(),
			BadSpeculation: ct.decode.tdBadSpec.Load(),
			FrontendBound:  ct.decode.tdFrontend.Load(),
			BackendBound:   ct.decode.tdBackend.Load(),
		},
	}
}

// registerMetrics wires every measuring component into the core's
// registry: cache levels, prefetch queue, BPU, the prefetcher under test
// (when it publishes metrics), the FEC diagnostic histograms, and the
// derived gauges the paper reports.
func (co *Core) registerMetrics() {
	reg := co.reg
	co.hier.L1I.RegisterMetrics(reg, "cache.l1i")
	co.hier.L1D.RegisterMetrics(reg, "cache.l1d")
	co.hier.L2.RegisterMetrics(reg, "cache.l2")
	co.hier.L3.RegisterMetrics(reg, "cache.l3")
	co.pq.RegisterMetrics(reg, "pq")
	co.bp.RegisterMetrics(reg)
	co.rob.RegisterMetrics(reg)
	if m, ok := co.pf.(metrics.Registrant); ok {
		m.RegisterMetrics(reg)
	}
	reg.Gauge("prefetcher.storage_kb").Set(co.pf.StorageKB())

	// FEC instance classification (populated under CollectSets; zero
	// otherwise — kept registered so snapshot shape is policy-independent).
	reg.CounterFunc("core.fec.req_age.never", func() uint64 { return co.fecReqAge[0] })
	reg.CounterFunc("core.fec.req_age.gt_10k", func() uint64 { return co.fecReqAge[1] })
	reg.CounterFunc("core.fec.req_age.100_to_10k", func() uint64 { return co.fecReqAge[2] })
	reg.CounterFunc("core.fec.req_age.le_100", func() uint64 { return co.fecReqAge[3] })
	reg.CounterFunc("core.fec.holds.no_trigger", func() uint64 { return co.fecHolds[0] })
	reg.CounterFunc("core.fec.holds.table_holds_pair", func() uint64 { return co.fecHolds[1] })
	reg.CounterFunc("core.fec.holds.table_missing_pair", func() uint64 { return co.fecHolds[2] })

	// Derived metrics (the paper's reported numbers), computed at snapshot
	// time from the same counters Result exposes.
	derived := func(name string, fn func(*Result) float64) {
		reg.GaugeFunc(name, func() float64 {
			r := co.Result()
			return fn(&r)
		})
	}
	derived("derived.ipc", func(r *Result) float64 { return r.IPC() })
	derived("derived.l1i_mpki", func(r *Result) float64 { return r.L1IMPKI() })
	derived("derived.l2i_mpki", func(r *Result) float64 { return r.L2IMPKI() })
	derived("derived.l2d_mpki", func(r *Result) float64 { return r.L2DMPKI() })
	derived("derived.l3_mpki", func(r *Result) float64 { return r.L3MPKI() })
	derived("derived.ppki", func(r *Result) float64 { return r.PPKI() })
	derived("derived.prefetch_accuracy", func(r *Result) float64 { return r.PrefetchAccuracy() })
	derived("derived.late_prefetch_rate", func(r *Result) float64 { return r.LatePrefetchRate() })
	derived("derived.useless_prefetch_pki", func(r *Result) float64 { return r.UselessPrefetchPKI() })
	derived("derived.fec_line_pct", func(r *Result) float64 { return r.FECLinePct() })
	derived("derived.fec_stall_share", func(r *Result) float64 { return r.FECStallShare() })
}

// Metrics returns the core's metric registry. The registry is owned by the
// core's goroutine; snapshot it before sharing across goroutines.
func (co *Core) Metrics() *metrics.Registry { return co.reg }

// MetricsSnapshot captures every registered metric, stable-ordered.
// (Snapshot is the full simulator-state capture in checkpoint.go.)
func (co *Core) MetricsSnapshot() metrics.Snapshot { return co.reg.Snapshot() }

// EnableSampling records a full registry snapshot every everyN retired
// instructions (measured window), so IPC/MPKI trajectories can be dumped
// for any run. Zero disables sampling.
func (co *Core) EnableSampling(everyN uint64) {
	co.sampleEvery = everyN
}

// Samples returns the interval snapshots collected since the last
// ResetStats. The slice is owned by the core; copy it before mutating.
func (co *Core) Samples() []metrics.Sample { return co.samples }

// SetSampleHook installs fn as a streaming observer: it is called with
// each interval sample immediately after the sample is recorded (still
// inside the retire stage, in deterministic order). The hook is pure
// observation — samples accumulate in Samples() regardless — and is not
// simulator state: forks and checkpoints never carry it.
func (co *Core) SetSampleHook(fn func(metrics.Sample)) { co.sampleHook = fn }
