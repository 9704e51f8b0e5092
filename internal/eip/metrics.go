package eip

import "pdip/internal/metrics"

// RegisterMetrics implements metrics.Registrant, publishing the entangling
// table's accounting under "eip". Bindings are snapshot-time views over
// Stats, so ResetStats is reflected automatically.
func (e *EIP) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("eip.entangled", &e.Stats.Entangled)
	reg.Counter("eip.no_source", &e.Stats.NoSource)
	reg.Counter("eip.lookups", &e.Stats.Lookups)
	reg.Counter("eip.hits", &e.Stats.Hits)
	reg.Gauge("eip.storage_kb", metrics.Const(e.StorageKB()))
}
