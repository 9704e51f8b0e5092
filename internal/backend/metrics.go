package backend

import "pdip/internal/metrics"

// RegisterMetrics publishes the ROB's accounting under "backend.rob".
// Bindings are snapshot-time views over Stats, so a caller zeroing Stats
// (Core.ResetStats) resets them implicitly.
func (r *ROB) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("backend.rob.pushed", &r.Stats.Pushed)
	reg.Counter("backend.rob.retired", &r.Stats.Retired)
	reg.Counter("backend.rob.squashed", &r.Stats.Squashed)
	reg.Gauge("backend.rob.capacity", metrics.Const(float64(r.Capacity())))
}
