// Package metrics is the simulator's unified observability layer: a
// registry that names the counters and gauges every measuring component
// (core, frontend, cache, bpu, prefetchers, prefetch queue, uncore) keeps
// in its own state, with stable-ordered snapshots and JSON export behind
// it.
//
// Design constraints, in order:
//
//   - A registry holds no value of its own. A counter is a component's
//     uint64 field, bound by address (Counter); a gauge is a derived or
//     constant value, bound as a function (Gauge). Both are read only at
//     snapshot time, so the hot path never touches the registry, and
//     capture, restore and reset act on the components' records alone.
//   - Deterministic output: Snapshot renders every metric in sorted name
//     order, and two runs with identical seeds must produce bit-identical
//     snapshots (the harness's deterministic-replay verifier depends on
//     this).
//   - Single-writer ownership: a registry belongs to one simulated core and
//     is read from its goroutine. Nothing here is synchronised; cross-core
//     aggregation happens on snapshots, which are plain values.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Registry is one core's metric namespace. Names are dot-separated paths
// ("cache.l1i.misses", "frontend.resteer.mispredict"), each bound once, at
// construction, to the state it reads.
type Registry struct {
	counters map[string]*uint64
	gauges   map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*uint64),
		gauges:   make(map[string]func() float64),
	}
}

// taken reports whether name is already registered under either kind.
func (r *Registry) taken(name string) bool {
	if _, ok := r.counters[name]; ok {
		return true
	}
	_, ok := r.gauges[name]
	return ok
}

// Counter binds the counter at v (a field of a component's stats record)
// under name. Duplicate names panic: metric names are a construction-time
// contract, not runtime input.
func (r *Registry) Counter(name string, v *uint64) {
	if r.taken(name) {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	r.counters[name] = v
}

// Gauge binds a derived or constant value (IPC, MPKI, a configured
// capacity) under name, evaluated at snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r.taken(name) {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	r.gauges[name] = fn
}

// Const returns a gauge function that reads v, for levels fixed at
// construction (storage budgets, capacities).
func Const(v float64) func() float64 { return func() float64 { return v } }

// Registrant is the optional interface components (prefetchers) implement
// to publish their counters into a core's registry.
type Registrant interface {
	RegisterMetrics(*Registry)
}

// Len returns the number of registered metric names.
func (r *Registry) Len() int { return len(r.counters) + len(r.gauges) }

// Names returns every registered metric name in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, r.Len())
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures every metric at this instant. Gauges evaluating to NaN
// or ±Inf are clamped to 0 so snapshots stay JSON-encodable and diffable.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
		Counters: make(map[string]uint64, len(r.counters)),
		//lint:ignore allocfree sampled diagnostics snapshot, one per sample interval, not per cycle
		Gauges: make(map[string]float64, len(r.gauges)),
	}
	for n, v := range r.counters {
		s.Counters[n] = *v
	}
	for n, fn := range r.gauges {
		s.Gauges[n] = sanitize(fn())
	}
	return s
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
