package metrics

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCounterOwnership(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("Load = %d, want 5", c.Load())
	}
	// Same name returns the same counter.
	if r.Counter("a.b") != c {
		t.Fatal("Counter not idempotent")
	}
	s := r.Snapshot()
	if v, ok := s.Counter("a.b"); !ok || v != 5 {
		t.Fatalf("snapshot a.b = %d,%v", v, ok)
	}
}

func TestCounterFuncBindsExternalField(t *testing.T) {
	r := NewRegistry()
	var field uint64
	r.CounterFunc("x.y", func() uint64 { return field })
	field = 42
	if v, _ := r.Snapshot().Counter("x.y"); v != 42 {
		t.Fatalf("bound counter = %d, want 42", v)
	}
}

func TestGaugeSurvivesReset(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("storage.kb")
	g.Set(43.5)
	c := r.Counter("events")
	c.Add(10)
	r.Reset()
	if c.Load() != 0 {
		t.Fatal("counter not reset")
	}
	if g.Load() != 43.5 {
		t.Fatal("gauge should survive Reset")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("occ", 1, 4, 8)
	for _, v := range []float64{0, 1, 2, 5, 9, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	want := map[string]uint64{
		"occ.le_1":     2, // 0, 1
		"occ.le_4":     1, // 2
		"occ.le_8":     1, // 5
		"occ.overflow": 2, // 9, 100
		"occ.count":    6,
	}
	for k, v := range want {
		if got := s.Counters[k]; got != v {
			t.Errorf("%s = %d, want %d", k, got, v)
		}
	}
	if got := s.Gauges["occ.sum"]; got != 117 {
		t.Errorf("occ.sum = %v, want 117", got)
	}
	h.Reset()
	if h.Total() != 0 || h.Sum() != 0 {
		t.Fatal("histogram not reset")
	}
}

func TestRegistryPanicsOnKindClash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind clash")
		}
	}()
	r := NewRegistry()
	r.Counter("n")
	r.Gauge("n")
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-increasing bounds")
		}
	}()
	NewRegistry().Histogram("h", 4, 4)
}

func TestSnapshotDiff(t *testing.T) {
	a := Snapshot{Counters: map[string]uint64{"x": 1, "y": 2}, Gauges: map[string]float64{"g": 1.5}}
	b := Snapshot{Counters: map[string]uint64{"x": 1, "z": 3}, Gauges: map[string]float64{"g": 1.5}}
	diff := a.Diff(b)
	if len(diff) != 2 {
		t.Fatalf("diff = %v, want 2 lines", diff)
	}
	if !a.Equal(a) {
		t.Fatal("snapshot not equal to itself")
	}
	if a.Equal(b) {
		t.Fatal("differing snapshots reported equal")
	}
}

func TestSnapshotDiffIsBitExactOnGauges(t *testing.T) {
	a := Snapshot{Counters: map[string]uint64{}, Gauges: map[string]float64{"g": 0.0}}
	b := Snapshot{Counters: map[string]uint64{}, Gauges: map[string]float64{"g": math.Copysign(0, -1)}}
	if a.Equal(b) {
		t.Fatal("0 and -0 must differ bit-exactly")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.big").Add(1<<53 - 1)
	r.Gauge("g.pi").Set(math.Pi)
	r.GaugeFunc("g.derived", func() float64 { return 1.0 / 3.0 })
	s := r.Snapshot()

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshotJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if diff := s.Diff(back); len(diff) != 0 {
		t.Fatalf("JSON round trip not bit-exact: %v", diff)
	}
}

func TestSnapshotNaNGaugeSanitized(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("bad", func() float64 { return math.NaN() })
	if v := r.Snapshot().Gauges["bad"]; v != 0 {
		t.Fatalf("NaN gauge = %v, want sanitized 0", v)
	}
}

func TestSnapshotCSV(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(0.5)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{"kind,name,value", "counter,a,1", "counter,b,2", "gauge,g,0.5"}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("CSV = %v, want %v", lines, want)
	}
}

func TestNamesSortedAndLen(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	r.Gauge("a")
	r.Histogram("m", 1)
	r.CounterFunc("c", func() uint64 { return 0 })
	r.GaugeFunc("d", func() float64 { return 0 })
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	names := r.Names()
	want := []string{"a", "c", "d", "m", "z"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
}
