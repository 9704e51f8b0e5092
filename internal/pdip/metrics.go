package pdip

import "pdip/internal/metrics"

// RegisterMetrics implements metrics.Registrant, publishing the table's
// insertion/lookup accounting under "pdip". Bindings are snapshot-time
// views over Stats, so ResetStats is reflected automatically.
func (p *PDIP) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("pdip.insert_attempts", &p.Stats.InsertAttempts)
	reg.Counter("pdip.insert_filtered", &p.Stats.InsertFiltered)
	reg.Counter("pdip.insert_no_trigger", &p.Stats.InsertNoTrigger)
	reg.Counter("pdip.insert_return_skipped", &p.Stats.InsertReturnSkipped)
	reg.Counter("pdip.inserted", &p.Stats.Inserted)
	reg.Counter("pdip.mask_merged", &p.Stats.MaskMerged)
	reg.Counter("pdip.lookups", &p.Stats.Lookups)
	reg.Counter("pdip.hits", &p.Stats.Hits)
	reg.Gauge("pdip.storage_kb", metrics.Const(p.StorageKB()))
}
