// Package metrics is the simulator's unified observability layer: a
// lightweight counter/gauge/histogram registry every measuring component
// (core, frontend, cache, bpu, prefetchers, prefetch queue) registers into,
// with stable-ordered snapshots and JSON/CSV export behind it.
//
// Design constraints, in order:
//
//   - No reflection and no map lookups on the hot path. Components resolve
//     *Counter / *Gauge / *Histogram pointers once at construction and
//     increment through the pointer; alternatively they bind an existing
//     struct field behind a closure (CounterFunc/GaugeFunc), which is read
//     only at snapshot time.
//   - Deterministic output: Snapshot renders every metric in sorted name
//     order, and two runs with identical seeds must produce bit-identical
//     snapshots (the harness's deterministic-replay verifier depends on
//     this).
//   - Single-writer ownership: a registry belongs to one simulated core and
//     is mutated from one goroutine. None of the types here are
//     synchronised; cross-core aggregation happens on snapshots, which are
//     plain values.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically increasing event count owned by the registry.
// The zero value is ready to use but is normally obtained from
// Registry.Counter so it appears in snapshots.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v }

// Reset zeroes the counter (measurement-window reset after warmup).
func (c *Counter) Reset() { c.v = 0 }

// Gauge is a point-in-time level (storage budgets, configured capacities,
// occupancies). Gauges survive Registry.Reset: they describe state, not
// accumulation.
type Gauge struct {
	v float64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.v = v }

// Load returns the current value.
func (g *Gauge) Load() float64 { return g.v }

// Histogram is a fixed-bucket distribution. Bounds are inclusive upper
// bounds in strictly increasing order; an implicit overflow bucket catches
// everything above the last bound. Observation is a short linear scan — no
// allocation, suitable for once-per-cycle hot-path use with a handful of
// buckets.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1, last is overflow
	total  uint64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.total++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// ObserveN records n identical samples in one call — the bulk form behind
// idle-cycle fast-forward, where a per-cycle observation repeats unchanged
// across a skipped stall window. For integer-valued v (every per-cycle
// occupancy metric) the accumulated sum is bit-identical to calling
// Observe(v) n times, because v*n and the repeated additions are both
// exact in float64 below 2^53.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.total += n
	h.sum += v * float64(n)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i] += n
			return
		}
	}
	h.counts[len(h.bounds)] += n
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Reset zeroes all buckets.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
}

// Registry is one core's metric namespace. Names are dot-separated paths
// ("cache.l1i.misses", "frontend.resteer.mispredict"); a name is either
// owned (Counter/Gauge/Histogram allocated here) or bound (a closure over a
// component's own field). Registration is construction-time only; the hot
// path never touches the registry itself.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	counterFns map[string]func() uint64
	gaugeFns   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		counterFns: make(map[string]func() uint64),
		gaugeFns:   make(map[string]func() float64),
	}
}

// taken reports whether name is already registered under any kind.
func (r *Registry) taken(name string) bool {
	if _, ok := r.counters[name]; ok {
		return true
	}
	if _, ok := r.gauges[name]; ok {
		return true
	}
	if _, ok := r.hists[name]; ok {
		return true
	}
	if _, ok := r.counterFns[name]; ok {
		return true
	}
	_, ok := r.gaugeFns[name]
	return ok
}

// Counter returns the owned counter registered under name, creating it on
// first use. It panics if name is already registered as another kind —
// metric names are a construction-time contract, not runtime input.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	if r.taken(name) {
		panic(fmt.Sprintf("metrics: %q already registered as a different kind", name))
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the owned gauge registered under name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	if r.taken(name) {
		panic(fmt.Sprintf("metrics: %q already registered as a different kind", name))
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the owned histogram registered under name with the
// given bucket upper bounds (strictly increasing), creating it on first
// use. Re-registration with different bounds panics.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if h, ok := r.hists[name]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("metrics: histogram %q re-registered with different bounds", name))
		}
		return h
	}
	if r.taken(name) {
		panic(fmt.Sprintf("metrics: %q already registered as a different kind", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds must be strictly increasing", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
	r.hists[name] = h
	return h
}

// CounterFunc binds an externally stored counter (typically a field of a
// component's Stats struct) under name. The closure is resolved once here
// and evaluated only at snapshot time, so the component's hot path is
// untouched. Duplicate names panic.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r.taken(name) {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	r.counterFns[name] = fn
}

// GaugeFunc binds a derived metric (IPC, MPKI, accuracy) under name,
// evaluated at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r.taken(name) {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	r.gaugeFns[name] = fn
}

// Registrant is the optional interface components (prefetchers) implement
// to publish their counters into a core's registry.
type Registrant interface {
	RegisterMetrics(*Registry)
}

// Reset zeroes every owned counter and histogram — the measurement-window
// reset after warmup. Gauges (levels) and bound functions (whose backing
// state is reset by the owning component) are left alone.
func (r *Registry) Reset() {
	// Per-key resets commute, so iteration order cannot leak into metric
	// state here — but resetting in sorted-name order keeps the operation
	// order-independent by construction rather than by argument.
	names := make([]string, 0, len(r.counters)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if c, ok := r.counters[n]; ok {
			c.Reset()
		}
		if h, ok := r.hists[n]; ok {
			h.Reset()
		}
	}
}

// Len returns the number of registered metric names (histograms count
// once, although they expand to several snapshot entries).
func (r *Registry) Len() int {
	return len(r.counters) + len(r.gauges) + len(r.hists) + len(r.counterFns) + len(r.gaugeFns)
}

// Names returns every registered metric name in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, r.Len())
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	for n := range r.counterFns {
		names = append(names, n)
	}
	for n := range r.gaugeFns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures every metric at this instant. Histograms expand into
// one counter per bucket ("name.le_<bound>", "name.overflow") plus
// "name.count" and a "name.sum" gauge. Gauges evaluating to NaN or ±Inf
// are clamped to 0 so snapshots stay JSON-encodable and diffable.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
		Counters: make(map[string]uint64, len(r.counters)+len(r.counterFns)+4*len(r.hists)),
		//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
		Gauges: make(map[string]float64, len(r.gauges)+len(r.gaugeFns)+len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Load()
	}
	for n, fn := range r.counterFns {
		s.Counters[n] = fn()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = sanitize(g.Load())
	}
	for n, fn := range r.gaugeFns {
		s.Gauges[n] = sanitize(fn())
	}
	for n, h := range r.hists {
		for i, b := range h.bounds {
			//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
			s.Counters[fmt.Sprintf("%s.le_%g", n, b)] = h.counts[i]
		}
		//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
		s.Counters[n+".overflow"] = h.counts[len(h.bounds)]
		//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
		s.Counters[n+".count"] = h.total
		//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
		s.Gauges[n+".sum"] = sanitize(h.sum)
	}
	return s
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
