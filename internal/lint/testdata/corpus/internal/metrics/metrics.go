// Package metrics is a miniature of the real registry: just enough
// method surface for the corpus packages to exercise the analyzers.
package metrics

// Registry names the counters and gauges components keep.
type Registry struct{}

// Counter binds the counter at v under name.
func (r *Registry) Counter(name string, v *uint64) { _, _ = name, v }

// Gauge binds a derived value under name.
func (r *Registry) Gauge(name string, fn func() float64) { _, _ = name, fn }
