package prefetch

import "pdip/internal/metrics"

// RegisterMetrics binds the prefetch queue's issue accounting under prefix
// (conventionally "pq") into reg. Bindings are snapshot-time views over
// Stats; the enqueue/drain hot path is untouched.
func (q *Queue) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".enqueued", &q.Stats.Enqueued)
	reg.Counter(prefix+".dropped_queue_full", &q.Stats.DroppedQueueFull)
	reg.Counter(prefix+".issued", &q.Stats.Issued)
	reg.Counter(prefix+".dropped_present", &q.Stats.DroppedPresent)
	reg.Counter(prefix+".dropped_mshr", &q.Stats.DroppedMSHR)
	reg.Counter(prefix+".trigger.none", &q.Stats.ByTrigger[TriggerNone])
	reg.Counter(prefix+".trigger.mispredict", &q.Stats.ByTrigger[TriggerMispredict])
	reg.Counter(prefix+".trigger.last_taken", &q.Stats.ByTrigger[TriggerLastTaken])
	reg.Gauge(prefix+".capacity", metrics.Const(float64(len(q.entries))))
}
