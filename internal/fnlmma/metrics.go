package fnlmma

import "pdip/internal/metrics"

// RegisterMetrics implements metrics.Registrant, publishing the FNL+MMA
// training/emission accounting under "fnlmma". Bindings are snapshot-time
// views over Stats, so ResetStats is reflected automatically.
func (f *FNLMMA) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("fnlmma.fnl_emitted", &f.Stats.FNLEmitted)
	reg.Counter("fnlmma.mma_emitted", &f.Stats.MMAEmitted)
	reg.Counter("fnlmma.trained", &f.Stats.Trained)
	reg.Gauge("fnlmma.storage_kb", metrics.Const(f.StorageKB()))
}
