package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestCounterOwnership pins that a registry holds no value of its own: a
// bound counter reads its owner's field at snapshot time, so the owner's
// writes and resets are all the state there is.
func TestCounterOwnership(t *testing.T) {
	var stats struct{ Events uint64 }
	r := NewRegistry()
	r.Counter("a.b", &stats.Events)
	stats.Events += 5
	if v, ok := r.Snapshot().Counter("a.b"); !ok || v != 5 {
		t.Fatalf("snapshot a.b = %d,%v, want 5", v, ok)
	}
	stats.Events = 0
	if v, _ := r.Snapshot().Counter("a.b"); v != 0 {
		t.Fatalf("after the owner's reset a.b = %d, want 0", v)
	}
}

func TestCounterBindsExternalField(t *testing.T) {
	r := NewRegistry()
	var field [2]uint64
	r.Counter("x.y", &field[1])
	field[1] = 42
	if v, _ := r.Snapshot().Counter("x.y"); v != 42 {
		t.Fatalf("bound counter = %d, want 42", v)
	}
}

// TestGaugeSurvivesReset pins that gauges describe levels, not
// accumulation: zeroing the record a counter is bound to leaves a constant
// gauge as it was.
func TestGaugeSurvivesReset(t *testing.T) {
	var stats struct{ Events uint64 }
	r := NewRegistry()
	r.Gauge("storage.kb", Const(43.5))
	r.Counter("events", &stats.Events)
	stats.Events = 10
	stats = struct{ Events uint64 }{}
	s := r.Snapshot()
	if s.Counters["events"] != 0 {
		t.Fatal("counter not reset")
	}
	if s.Gauges["storage.kb"] != 43.5 {
		t.Fatal("gauge should survive the reset")
	}
}

func TestRegistryPanicsOnKindClash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind clash")
		}
	}()
	var v uint64
	r := NewRegistry()
	r.Counter("n", &v)
	r.Gauge("n", Const(0))
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

// TestSnapshotJSONRoundTrip holds counters up to 2^53-1 and gauges
// bit-exact through encoding/json, the encoding the fabric ships
// snapshots in.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	big := uint64(1<<53 - 1)
	r := NewRegistry()
	r.Counter("c.big", &big)
	r.Gauge("g.pi", Const(math.Pi))
	r.Gauge("g.derived", func() float64 { return 1.0 / 3.0 })
	s := r.Snapshot()

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if diff := s.Diff(back); len(diff) != 0 {
		t.Fatalf("JSON round trip not bit-exact: %v", diff)
	}
}

func TestSnapshotNaNGaugeSanitized(t *testing.T) {
	r := NewRegistry()
	r.Gauge("bad", func() float64 { return math.NaN() })
	if v := r.Snapshot().Gauges["bad"]; v != 0 {
		t.Fatalf("NaN gauge = %v, want sanitized 0", v)
	}
}

func TestNamesSortedAndLen(t *testing.T) {
	var z, c uint64
	r := NewRegistry()
	r.Counter("z", &z)
	r.Gauge("a", Const(0))
	r.Counter("c", &c)
	r.Gauge("d", func() float64 { return 0 })
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	names := r.Names()
	want := []string{"a", "c", "d", "z"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names = %v, want %v", names, want)
	}
}
