package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTopDownShares(t *testing.T) {
	td := TopDown{Retiring: 10, BadSpeculation: 20, FrontendBound: 30, BackendBound: 40}
	if td.Total() != 100 {
		t.Fatalf("total %d", td.Total())
	}
	r, f, b, be := td.Shares()
	if r != 0.1 || f != 0.3 || b != 0.2 || be != 0.4 {
		t.Fatalf("shares %v %v %v %v", r, f, b, be)
	}
	var zero TopDown
	r, f, b, be = zero.Shares()
	if r+f+b+be != 0 {
		t.Fatal("zero top-down produced non-zero shares")
	}
}

func TestIPCAndPerKilo(t *testing.T) {
	var c Core
	c.Cycles, c.Instructions = 1000, 2500
	if c.IPC() != 2.5 {
		t.Fatalf("IPC %v", c.IPC())
	}
	if c.PerKilo(25) != 10 {
		t.Fatalf("PerKilo %v", c.PerKilo(25))
	}
	var zero Core
	if zero.IPC() != 0 || zero.PerKilo(5) != 0 {
		t.Fatal("zero-division not guarded")
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2.0, 2.1); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("Speedup = %v", got)
	}
	if Speedup(0, 1) != 0 {
		t.Fatal("zero base not guarded")
	}
}

func TestGeomean(t *testing.T) {
	if Geomean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	// Symmetric gains ±x multiply out: geomean of {+10%, -9.0909..%} ≈ 0.
	g := Geomean([]float64{0.10, 1/1.10 - 1})
	if math.Abs(g) > 1e-9 {
		t.Fatalf("geomean %v, want ~0", g)
	}
	// All-equal speedups are the geomean.
	g = Geomean([]float64{0.032, 0.032, 0.032})
	if math.Abs(g-0.032) > 1e-9 {
		t.Fatalf("geomean %v", g)
	}
}

func TestGeomeanIPC(t *testing.T) {
	g := GeomeanIPC([]float64{1, 4})
	if math.Abs(g-2) > 1e-9 {
		t.Fatalf("geomean IPC %v", g)
	}
	if GeomeanIPC(nil) != 0 {
		t.Fatal("empty geomean IPC")
	}
}

func TestGeomeanMonotonic(t *testing.T) {
	f := func(a, b uint8) bool {
		x := float64(a%50) / 100
		y := x + float64(b%50)/100
		return Geomean([]float64{x, x}) <= Geomean([]float64{y, y})+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "alpha") {
		t.Fatalf("table content wrong:\n%s", out)
	}
	// All lines aligned to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatal("separator width mismatch")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	// Not destructive.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Fatal("median sorted its input")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.125) != "12.5%" {
		t.Fatalf("Pct = %q", Pct(0.125))
	}
}
