package pdip

import (
	"fmt"
	"strings"
	"testing"

	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

func TestStorageMatchesPaper(t *testing.T) {
	// §5.4: 512 sets × 8 ways × (10 tag + 1 LRU + 2×(34+4)) = 43.5KB.
	got := DefaultConfig().StorageKB()
	if got != 43.5 {
		t.Fatalf("PDIP(44) storage = %.2fKB, want 43.5", got)
	}
	// The paper's size sweep: 11 / 22 / 43.5 / 87 KB for 2/4/8/16 ways.
	for ways, want := range map[int]float64{2: 10.875, 4: 21.75, 8: 43.5, 16: 87.0} {
		if got := ConfigForWays(ways).StorageKB(); got != want {
			t.Fatalf("ways=%d storage %.3f, want %.3f", ways, got, want)
		}
	}
}

// TestConfigValidation pins the geometry New rejects, each with a panic
// naming the field: the mask must fit its uint8, the partial tag its
// uint32, counts cannot be negative, and the insertion coin is a
// probability. Zero fields (defaults) and the MaskBits = -1 no-mask
// ablation still construct.
func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"MaskBits", func(c *Config) { c.MaskBits = 9 }},
		{"TagBits", func(c *Config) { c.TagBits = -1 }},
		{"TagBits", func(c *Config) { c.TagBits = 32 }},
		{"Sets", func(c *Config) { c.Sets = -1 }},
		{"Ways", func(c *Config) { c.Ways = -1 }},
		{"TargetsPerEntry", func(c *Config) { c.TargetsPerEntry = -1 }},
		{"InsertProb", func(c *Config) { c.InsertProb = -0.1 }},
		{"InsertProb", func(c *Config) { c.InsertProb = 1.5 }},
	} {
		c := DefaultConfig()
		tc.mutate(&c)
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), tc.field) {
					t.Errorf("%+v: got panic %v, want a rejection naming %s", c, r, tc.field)
				}
			}()
			New(c)
		}()
	}
	nomask := DefaultConfig()
	nomask.MaskBits = -1
	if got := New(nomask).Config().MaskBits; got != 0 {
		t.Errorf("MaskBits -1 built a %d-bit mask, want the no-mask ablation", got)
	}
	if got := New(Config{}).Config(); got.Sets != 512 || got.Ways != 8 || got.TagBits != 10 || got.InsertProb != 0.25 {
		t.Errorf("all-zero config built %+v, want the paper defaults", got)
	}
}

func fecEvent(trigger, line isa.Addr) prefetch.RetireEvent {
	return prefetch.RetireEvent{
		Line:           line,
		Missed:         true,
		FEC:            true,
		HighCost:       true,
		BackendEmpty:   true,
		StarveCycles:   20,
		ResteerTrigger: trigger,
	}
}

func deterministic() Config {
	c := DefaultConfig()
	c.InsertProb = 1.0
	return c
}

func TestInsertLookupRoundtrip(t *testing.T) {
	p := New(deterministic())
	trig, target := isa.Addr(0x1000), isa.Addr(0x9000)
	p.OnLineRetired(fecEvent(trig, target))
	reqs := p.OnFTQInsert(trig, nil)
	if len(reqs) != 1 || reqs[0].Line != target {
		t.Fatalf("lookup after insert: %+v", reqs)
	}
	if reqs[0].Trigger != prefetch.TriggerMispredict {
		t.Fatalf("trigger class %v", reqs[0].Trigger)
	}
	// A different trigger must miss.
	if got := p.OnFTQInsert(0x5000, nil); len(got) != 0 {
		t.Fatalf("unrelated trigger hit: %+v", got)
	}
}

func TestLookupIsBlockGranular(t *testing.T) {
	p := New(deterministic())
	p.OnLineRetired(fecEvent(0x1008, 0x9000)) // trigger mid-line
	// Any address in the trigger's line must hit.
	if got := p.OnFTQInsert(0x1000, nil); len(got) != 1 {
		t.Fatalf("block-granular lookup failed: %+v", got)
	}
}

func TestMaskMerge(t *testing.T) {
	p := New(deterministic())
	trig := isa.Addr(0x1000)
	base := isa.Addr(0x9000)
	p.OnLineRetired(fecEvent(trig, base))
	p.OnLineRetired(fecEvent(trig, base+1*isa.LineSize))
	p.OnLineRetired(fecEvent(trig, base+4*isa.LineSize))
	if p.Stats.MaskMerged != 2 {
		t.Fatalf("MaskMerged = %d, want 2", p.Stats.MaskMerged)
	}
	reqs := p.OnFTQInsert(trig, nil)
	want := map[isa.Addr]bool{base: true, base + 64: true, base + 256: true}
	if len(reqs) != 3 {
		t.Fatalf("emitted %d requests: %+v", len(reqs), reqs)
	}
	for _, r := range reqs {
		if !want[r.Line] {
			t.Fatalf("unexpected line %v", r.Line)
		}
	}
}

func TestMaskWindowLimit(t *testing.T) {
	p := New(deterministic())
	trig, base := isa.Addr(0x1000), isa.Addr(0x9000)
	p.OnLineRetired(fecEvent(trig, base))
	p.OnLineRetired(fecEvent(trig, base+5*isa.LineSize)) // beyond 4-line mask
	if p.Stats.MaskMerged != 0 {
		t.Fatal("line beyond the mask window merged")
	}
	reqs := p.OnFTQInsert(trig, nil)
	if len(reqs) != 2 {
		t.Fatalf("want 2 separate targets, got %+v", reqs)
	}
}

func TestTargetSlotLRUReplacement(t *testing.T) {
	p := New(deterministic())
	trig := isa.Addr(0x1000)
	// Three far-apart targets into a 2-slot entry.
	a, b, c := isa.Addr(0x10000), isa.Addr(0x20000), isa.Addr(0x30000)
	p.OnLineRetired(fecEvent(trig, a))
	p.OnLineRetired(fecEvent(trig, b))
	p.OnLineRetired(fecEvent(trig, c))
	reqs := p.OnFTQInsert(trig, nil)
	if len(reqs) != 2 {
		t.Fatalf("want 2 targets, got %d", len(reqs))
	}
	for _, r := range reqs {
		if r.Line == a {
			t.Fatal("LRU target not replaced")
		}
	}
}

func TestNonFECNotInserted(t *testing.T) {
	p := New(deterministic())
	ev := fecEvent(0x1000, 0x9000)
	ev.FEC = false
	p.OnLineRetired(ev)
	if got := p.OnFTQInsert(0x1000, nil); len(got) != 0 {
		t.Fatal("non-FEC line inserted")
	}
}

func TestHighCostFilter(t *testing.T) {
	c := deterministic()
	c.RequireHighCost = true
	p := New(c)
	ev := fecEvent(0x1000, 0x9000)
	ev.HighCost = false
	p.OnLineRetired(ev)
	if got := p.OnFTQInsert(0x1000, nil); len(got) != 0 {
		t.Fatal("low-cost FEC line inserted despite the filter")
	}
	ev.HighCost = true
	ev.BackendEmpty = false
	p.OnLineRetired(ev)
	if got := p.OnFTQInsert(0x1000, nil); len(got) != 0 {
		t.Fatal("no-backend-stall line inserted despite the filter")
	}
}

func TestIgnoreReturns(t *testing.T) {
	p := New(deterministic())
	ev := fecEvent(0x1000, 0x9000)
	ev.ResteerWasReturn = true
	p.OnLineRetired(ev)
	if p.Stats.InsertReturnSkipped != 1 {
		t.Fatal("return resteer not skipped")
	}
	c := deterministic()
	c.IgnoreReturns = false
	p2 := New(c)
	p2.OnLineRetired(ev)
	if got := p2.OnFTQInsert(0x1000, nil); len(got) != 1 {
		t.Fatal("return trigger not inserted with IgnoreReturns=false")
	}
}

func TestLastTakenFallback(t *testing.T) {
	p := New(deterministic())
	ev := fecEvent(0, 0x9000) // no resteer shadow
	ev.LastTakenBlock = 0x2000
	p.OnLineRetired(ev)
	reqs := p.OnFTQInsert(0x2000, nil)
	if len(reqs) != 1 || reqs[0].Trigger != prefetch.TriggerLastTaken {
		t.Fatalf("last-taken trigger path: %+v", reqs)
	}
}

func TestNoTriggerCounted(t *testing.T) {
	p := New(deterministic())
	ev := fecEvent(0, 0x9000)
	ev.LastTakenBlock = 0
	p.OnLineRetired(ev)
	if p.Stats.InsertNoTrigger != 1 {
		t.Fatal("triggerless insertion not counted")
	}
}

func TestSelfTriggerSkipped(t *testing.T) {
	p := New(deterministic())
	line := isa.Addr(0x9000)
	p.OnLineRetired(fecEvent(line, line))
	if got := p.OnFTQInsert(line, nil); len(got) != 0 {
		t.Fatal("self-triggering entry inserted")
	}
}

func TestInsertProbabilityFilters(t *testing.T) {
	c := DefaultConfig()
	c.InsertProb = 0.25
	p := New(c)
	for i := 0; i < 4000; i++ {
		p.OnLineRetired(fecEvent(isa.Addr(0x1000+i*64), isa.Addr(0x900000+i*64)))
	}
	filtered := float64(p.Stats.InsertFiltered) / float64(p.Stats.InsertAttempts)
	if filtered < 0.70 || filtered > 0.80 {
		t.Fatalf("insert filter rate %.2f, want ≈0.75", filtered)
	}
}

func TestEntryLRUEviction(t *testing.T) {
	c := deterministic()
	c.Sets = 1
	c.Ways = 2
	p := New(c)
	// Three triggers map to the single set; only two entries survive.
	for i := 0; i < 3; i++ {
		p.OnLineRetired(fecEvent(isa.Addr(0x1000+i*64), isa.Addr(0x90000+i*64)))
	}
	hits := 0
	for i := 0; i < 3; i++ {
		if got := p.OnFTQInsert(isa.Addr(0x1000+i*64), nil); len(got) > 0 {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("%d triggers resident in a 2-way single-set table", hits)
	}
}

func TestNoMaskAblation(t *testing.T) {
	c := deterministic()
	c.MaskBits = -1
	p := New(c)
	trig, base := isa.Addr(0x1000), isa.Addr(0x9000)
	p.OnLineRetired(fecEvent(trig, base))
	p.OnLineRetired(fecEvent(trig, base+isa.LineSize))
	reqs := p.OnFTQInsert(trig, nil)
	if len(reqs) != 2 {
		t.Fatalf("no-mask config merged lines: %+v", reqs)
	}
	if p.Stats.MaskMerged != 0 {
		t.Fatal("mask merge happened with MaskBits=0")
	}
}

func TestDebugHolds(t *testing.T) {
	p := New(deterministic())
	trig, base := isa.Addr(0x1000), isa.Addr(0x9000)
	p.OnLineRetired(fecEvent(trig, base))
	p.OnLineRetired(fecEvent(trig, base+2*isa.LineSize))
	if !p.DebugHolds(trig, base) || !p.DebugHolds(trig, base+2*isa.LineSize) {
		t.Fatal("DebugHolds misses stored pairs")
	}
	if p.DebugHolds(trig, base+7*isa.LineSize) {
		t.Fatal("DebugHolds reports a pair never stored")
	}
}

func TestResetStatsKeepsTable(t *testing.T) {
	p := New(deterministic())
	p.OnLineRetired(fecEvent(0x1000, 0x9000))
	p.ResetStats()
	if p.Stats.Inserted != 0 {
		t.Fatal("stats not reset")
	}
	if got := p.OnFTQInsert(0x1000, nil); len(got) != 1 {
		t.Fatal("table contents lost on stats reset")
	}
}
