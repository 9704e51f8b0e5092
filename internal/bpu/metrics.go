package bpu

import "pdip/internal/metrics"

// RegisterMetrics binds branch prediction accounting under "bpu" into reg.
// Bindings are snapshot-time views over Stats; the predict hot path is
// untouched.
func (b *BPU) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("bpu.cond_branches", &b.Stats.CondBranches)
	reg.Counter("bpu.cond_mispredict", &b.Stats.CondMispredict)
	reg.Counter("bpu.btb_lookups", &b.Stats.BTBLookups)
	reg.Counter("bpu.btb_miss_taken", &b.Stats.BTBMissTaken)
	reg.Counter("bpu.ind_branches", &b.Stats.IndBranches)
	reg.Counter("bpu.ind_mispredict", &b.Stats.IndMispredict)
	reg.Counter("bpu.returns", &b.Stats.Returns)
	reg.Counter("bpu.ret_mispredict", &b.Stats.RetMispredict)
	reg.Gauge("bpu.btb_kb", metrics.Const(b.Btb.StorageKB()))
}
