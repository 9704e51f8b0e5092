package rdip

import "pdip/internal/metrics"

// RegisterMetrics implements metrics.Registrant, publishing the signature
// table's accounting under "rdip". Bindings are snapshot-time views over
// Stats, so ResetStats is reflected automatically.
func (r *RDIP) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("rdip.context_switches", &r.Stats.ContextSwitches)
	reg.Counter("rdip.recorded", &r.Stats.Recorded)
	reg.Counter("rdip.hits", &r.Stats.Hits)
	reg.Gauge("rdip.storage_kb", metrics.Const(r.StorageKB()))
}
