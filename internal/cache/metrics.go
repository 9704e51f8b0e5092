package cache

import "pdip/internal/metrics"

// RegisterMetrics binds every per-level counter under prefix (e.g.
// "cache.l1i") into reg. Each counter is bound by the address of its
// field in the level's Stats record and read only at snapshot time, so the
// access hot path is untouched and ResetStats-style zeroing of Stats is
// reflected automatically.
func (c *Cache) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".accesses", &c.Stats.Accesses)
	reg.Counter(prefix+".misses", &c.Stats.Misses)
	reg.Counter(prefix+".inst_misses", &c.Stats.InstMisses)
	reg.Counter(prefix+".data_misses", &c.Stats.DataMisses)
	reg.Counter(prefix+".late_hits", &c.Stats.LateHits)
	reg.Counter(prefix+".fills", &c.Stats.Fills)
	reg.Counter(prefix+".prefetch_fills", &c.Stats.PrefetchFills)
	reg.Counter(prefix+".useful_prefetches", &c.Stats.UsefulPrefetches)
	reg.Counter(prefix+".late_prefetches", &c.Stats.LatePrefetches)
	reg.Counter(prefix+".useless_prefetches", &c.Stats.UselessPrefetches)
	reg.Counter(prefix+".evictions", &c.Stats.Evictions)
	reg.Gauge(prefix+".size_bytes", metrics.Const(float64(c.cfg.SizeBytes)))
	reg.Gauge(prefix+".ways", metrics.Const(float64(c.cfg.Ways)))
}
