package metrics

import (
	"fmt"
	"sort"

	"pdip/internal/checkpoint"
)

// CaptureCheckpoint captures every owned counter, gauge, and histogram in
// sorted name order. Bound functions (CounterFunc/GaugeFunc) are not
// captured: their backing state lives in the owning components, which
// checkpoint themselves.
func (r *Registry) CaptureCheckpoint() checkpoint.RegistryState {
	var st checkpoint.RegistryState

	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	st.Counters = make([]checkpoint.NamedCounter, 0, len(names))
	for _, n := range names {
		st.Counters = append(st.Counters, checkpoint.NamedCounter{Name: n, Value: r.counters[n].Load()})
	}

	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	st.Gauges = make([]checkpoint.NamedGauge, 0, len(names))
	for _, n := range names {
		st.Gauges = append(st.Gauges, checkpoint.NamedGauge{Name: n, Value: r.gauges[n].Load()})
	}

	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	st.Histograms = make([]checkpoint.HistogramState, 0, len(names))
	for _, n := range names {
		h := r.hists[n]
		st.Histograms = append(st.Histograms, checkpoint.HistogramState{
			Name:   n,
			Counts: append([]uint64(nil), h.counts...),
			Total:  h.total,
			Sum:    h.sum,
		})
	}
	return st
}

// RestoreCheckpoint overwrites the registry's owned values from a
// captured state. Every captured name must already be registered with a
// matching kind and (for histograms) bucket count — registration is a
// construction-time contract, so an unknown name means the checkpoint and
// the simulator build disagree about the metric schema.
func (r *Registry) RestoreCheckpoint(st checkpoint.RegistryState) error {
	for _, c := range st.Counters {
		dst, ok := r.counters[c.Name]
		if !ok {
			return fmt.Errorf("metrics: checkpoint counter %q not registered", c.Name)
		}
		dst.v = c.Value
	}
	for _, g := range st.Gauges {
		dst, ok := r.gauges[g.Name]
		if !ok {
			return fmt.Errorf("metrics: checkpoint gauge %q not registered", g.Name)
		}
		dst.v = g.Value
	}
	for _, h := range st.Histograms {
		dst, ok := r.hists[h.Name]
		if !ok {
			return fmt.Errorf("metrics: checkpoint histogram %q not registered", h.Name)
		}
		if len(dst.counts) != len(h.Counts) {
			return fmt.Errorf("metrics: checkpoint histogram %q has %d buckets, registry has %d",
				h.Name, len(h.Counts), len(dst.counts))
		}
		copy(dst.counts, h.Counts)
		dst.total = h.Total
		dst.sum = h.Sum
	}
	return nil
}
