package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Snapshot is a stable-ordered view of every registered metric at one
// instant. Counters (and expanded histogram buckets) are exact integers;
// gauges are float64 values that round-trip bit-exactly through JSON.
// Snapshots are plain values: safe to compare, serialise, and pass across
// goroutines.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Names returns every metric name in the snapshot, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter returns the named counter value and whether it exists.
func (s Snapshot) Counter(name string) (uint64, bool) {
	v, ok := s.Counters[name]
	return v, ok
}

// Gauge returns the named gauge value and whether it exists.
func (s Snapshot) Gauge(name string) (float64, bool) {
	v, ok := s.Gauges[name]
	return v, ok
}

// Equal reports whether two snapshots are bit-identical: same names, same
// counter values, and gauges equal under math.Float64bits (so -0 vs 0 or
// differently rounded results are detected, not papered over).
func (s Snapshot) Equal(o Snapshot) bool { return len(s.Diff(o)) == 0 }

// Diff returns one human-readable line per discrepancy between s and o, in
// sorted name order. An empty result means the snapshots are bit-identical.
func (s Snapshot) Diff(o Snapshot) []string {
	var out []string
	seen := make(map[string]bool)
	for n, a := range s.Counters {
		seen[n] = true
		if b, ok := o.Counters[n]; !ok {
			out = append(out, fmt.Sprintf("%s: %d != (missing)", n, a))
		} else if a != b {
			out = append(out, fmt.Sprintf("%s: %d != %d", n, a, b))
		}
	}
	for n, b := range o.Counters {
		if !seen[n] {
			out = append(out, fmt.Sprintf("%s: (missing) != %d", n, b))
		}
	}
	for n, a := range s.Gauges {
		key := "gauge " + n
		if b, ok := o.Gauges[n]; !ok {
			out = append(out, fmt.Sprintf("%s: %v != (missing)", key, a))
		} else if math.Float64bits(a) != math.Float64bits(b) {
			out = append(out, fmt.Sprintf("%s: %v != %v", key, a, b))
		}
	}
	for n, b := range o.Gauges {
		if _, ok := s.Gauges[n]; !ok {
			out = append(out, fmt.Sprintf("gauge %s: (missing) != %v", n, b))
		}
	}
	sort.Strings(out)
	return out
}

// Sample is one interval snapshot of a run, taken every N retired
// instructions when sampling is enabled (IPC/MPKI trajectories).
type Sample struct {
	// Instructions is the retired-instruction count at sampling time
	// (measured window, post-warmup).
	Instructions uint64 `json:"instructions"`
	// Metrics is the full registry snapshot at that point.
	Metrics Snapshot `json:"metrics"`
}

// Export is the on-disk format of `pdipsim -stats-json`: run identity, the
// final snapshot, and the optional interval samples.
type Export struct {
	Benchmark string   `json:"benchmark,omitempty"`
	Policy    string   `json:"policy,omitempty"`
	Final     Snapshot `json:"final"`
	Samples   []Sample `json:"samples,omitempty"`
}

// WriteJSON writes the export as indented, deterministic JSON.
func (e Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}
