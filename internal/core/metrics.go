package core

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/metrics"
)

// registerCounters names the core's own counters (co.stats) and the
// FTQ-occupancy histogram's buckets. The histogram's sample count is the
// cycle count: every cycle, stepped or skipped, adds one sample.
func (co *Core) registerCounters() {
	reg, st := co.reg, &co.stats
	reg.Counter("core.cycles", &st.Cycles)
	reg.Counter("core.instructions", &st.Instructions)
	reg.Counter("core.lines_retired", &st.LinesRetired)
	reg.Counter("core.fec.lines", &st.FECLines)
	reg.Counter("core.fec.repeat_lines", &st.FECRepeatLines)
	reg.Counter("core.fec.high_cost_lines", &st.HighCostFECLines)
	reg.Counter("core.fec.high_cost_backend", &st.HighCostBackend)
	reg.Counter("core.fec.stall_cycles", &st.FECStallCycles)
	reg.Counter("core.fec.covered_late", &st.FECCoveredLate)
	reg.Counter("core.fec.shadow_covered", &st.ShadowCovered)
	reg.Counter("core.fec.non_fec_stall_cycles", &st.NonFECStall)
	reg.Counter("frontend.resteer.mispredict", &st.ResteerMispredict)
	reg.Counter("frontend.resteer.btb_miss", &st.ResteerBTBMiss)
	reg.Counter("frontend.resteer.return", &st.ResteerReturn)
	reg.Counter("core.wrong_path_instructions", &st.WrongPathInstructions)
	reg.Counter("frontend.decode_starved_cycles", &st.DecodeStarvedCycles)
	reg.Counter("frontend.starve.on_miss", &st.StarvedOnMiss)
	reg.Counter("frontend.starve.no_entry", &st.StarveNoEntry)
	reg.Counter("frontend.starve.pipe", &st.StarvePipe)
	reg.Counter("frontend.starve.other", &st.StarveOther)
	reg.Counter("core.topdown.retiring", &st.TopDown.Retiring)
	reg.Counter("core.topdown.bad_speculation", &st.TopDown.BadSpeculation)
	reg.Counter("core.topdown.frontend_bound", &st.TopDown.FrontendBound)
	reg.Counter("core.topdown.backend_bound", &st.TopDown.BackendBound)
	reg.Counter("frontend.pf_dropped_ftq", &st.PFDroppedFTQ)

	const occ = "frontend.ftq_occupancy"
	for i, b := range checkpoint.FTQOccBounds {
		reg.Counter(fmt.Sprintf("%s.le_%d", occ, b), &st.FTQOcc[i])
	}
	reg.Counter(occ+".overflow", &st.FTQOcc[len(checkpoint.FTQOccBounds)])
	reg.Counter(occ+".count", &st.Cycles)
	reg.Gauge(occ+".sum", func() float64 { return float64(st.FTQOccSum) })
}

// registerMetrics wires every measuring component into the core's
// registry: cache levels, prefetch queue, BPU, the prefetcher under test
// (when it publishes metrics), the FEC diagnostic histograms, and the
// derived gauges the paper reports.
func (co *Core) registerMetrics() {
	reg := co.reg
	co.registerCounters()
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
	reg.Gauge("prefetcher.storage_kb", metrics.Const(co.pf.StorageKB()))

	// FEC instance classification (populated under CollectSets; zero
	// otherwise — kept registered so snapshot shape is policy-independent).
	reg.Counter("core.fec.req_age.never", &co.fecReqAge[0])
	reg.Counter("core.fec.req_age.gt_10k", &co.fecReqAge[1])
	reg.Counter("core.fec.req_age.100_to_10k", &co.fecReqAge[2])
	reg.Counter("core.fec.req_age.le_100", &co.fecReqAge[3])
	reg.Counter("core.fec.holds.no_trigger", &co.fecHolds[0])
	reg.Counter("core.fec.holds.table_holds_pair", &co.fecHolds[1])
	reg.Counter("core.fec.holds.table_missing_pair", &co.fecHolds[2])

	// Derived metrics (the paper's reported numbers), computed at snapshot
	// time from the same counters Result exposes.
	derived := func(name string, fn func(*Result) float64) {
		reg.Gauge(name, func() float64 {
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
