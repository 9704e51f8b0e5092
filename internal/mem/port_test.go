package mem

import (
	"testing"

	"pdip/internal/cache"
	"pdip/internal/isa"
)

func line(i int) isa.Addr { return isa.Addr(i * isa.LineSize) }

// tinyConfig shrinks every level so misses and MSHR pressure are easy to
// provoke.
func tinyConfig() Config {
	return Config{
		L1I:         cache.Config{Name: "L1I", SizeBytes: 4 << 10, Ways: 4, HitLatency: 2, MSHRs: 4},
		L1D:         cache.Config{Name: "L1D", SizeBytes: 4 << 10, Ways: 4, HitLatency: 2, MSHRs: 4},
		L2:          cache.Config{Name: "L2", SizeBytes: 32 << 10, Ways: 8, HitLatency: 10, MSHRs: 8},
		L3:          cache.Config{Name: "L3", SizeBytes: 64 << 10, Ways: 8, HitLatency: 20, MSHRs: 2},
		DRAMLatency: 100,
	}
}

// TestPortMessageLatencyAccumulation walks one cold fetch message down
// the whole chain and checks the reply's Done cycle carries the summed
// traversal latency: L1I lookup forwards at t, L2 adds its lookup
// latency, L3 adds its own, DRAM adds the flat access time.
func TestPortMessageLatencyAccumulation(t *testing.T) {
	h := newTestHierarchy(tinyConfig())
	res := h.InstPort().Send(Req{Op: OpFetch, Line: line(1), At: 1000})
	if res.L1Hit || res.Dropped {
		t.Fatalf("cold fetch classified as hit/drop: %+v", res)
	}
	if res.ServedBy != LevelMem {
		t.Fatalf("cold fetch served by %v, want Mem", res.ServedBy)
	}
	// 1000 (send) + 10 (L2 lookup, miss determined) + 20 (L3 lookup,
	// miss determined) + 100 (DRAM) = 1130.
	if want := int64(1130); res.Done != want {
		t.Fatalf("cold fetch Done = %d, want %d", res.Done, want)
	}

	// A second fetch of the same line while in flight is an L1 partial
	// hit completing at the outstanding fill's ready cycle.
	res2 := h.InstPort().Send(Req{Op: OpFetch, Line: line(1), At: 1001})
	if !res2.L1Hit || !res2.WasInflight {
		t.Fatalf("in-flight fetch: %+v", res2)
	}
	if res2.Done != res.Done {
		t.Fatalf("partial hit Done = %d, want %d", res2.Done, res.Done)
	}
}

// TestPortHitLevels checks ServedBy attribution as the line ages down the
// hierarchy: L1 hit after the fill, L2 hit after an L1 eviction-free
// refetch of a different alias is out of scope here — instead verify the
// L2 path directly by filling only L2/L3 via a first miss and re-probing
// after L1I eviction pressure.
func TestPortHitLevels(t *testing.T) {
	h := newTestHierarchy(tinyConfig())
	p := h.InstPort()
	p.Send(Req{Op: OpFetch, Line: line(1), At: 0})
	// After the fill completes, the line hits in L1 at hit latency.
	res := p.Send(Req{Op: OpFetch, Line: line(1), At: 5000})
	if !res.L1Hit || res.WasInflight || res.Done != 5002 {
		t.Fatalf("warm L1 hit: %+v", res)
	}

	// Evict line(1) from the 4-way L1I set by fetching conflicting lines
	// (same set, different tags). Sets = 4KB/(64*4) = 16.
	sets := h.L1I.NumSets()
	for i := 1; i <= 4; i++ {
		p.Send(Req{Op: OpFetch, Line: line(1 + i*sets), At: 6000 + int64(i)*500})
	}
	// line(1) is gone from L1I but still in the inclusive L2: the reply
	// must come back served by L2 at the L2 lookup latency.
	res = p.Send(Req{Op: OpFetch, Line: line(1), At: 20000})
	if res.L1Hit {
		t.Fatal("line unexpectedly still resident in L1I")
	}
	if res.ServedBy != LevelL2 {
		t.Fatalf("served by %v, want L2", res.ServedBy)
	}
	if res.Done != 20010 {
		t.Fatalf("L2 hit Done = %d, want 20010", res.Done)
	}
}

// TestPortPrefetchDropReasons checks that the reply message classifies
// drops: present lines versus exhausted MSHR headroom.
func TestPortPrefetchDropReasons(t *testing.T) {
	h := newTestHierarchy(tinyConfig())
	p := h.InstPort()

	// Fill a line, then prefetch it again: DropPresent.
	p.Send(Req{Op: OpFetch, Line: line(1), At: 0})
	res := p.Send(Req{Op: OpPrefetch, Line: line(1), At: 1})
	if !res.Dropped || res.Reason != DropPresent {
		t.Fatalf("present prefetch: %+v", res)
	}

	// Saturate the 4-entry L1I MSHR file with cold fetches, then ask for
	// a prefetch with reserve 2: DropMSHR.
	for i := 10; i < 14; i++ {
		p.Send(Req{Op: OpFetch, Line: line(i), At: 2})
	}
	res = p.Send(Req{Op: OpPrefetch, Line: line(99), At: 3, Reserve: 2})
	if !res.Dropped || res.Reason != DropMSHR {
		t.Fatalf("MSHR-starved prefetch: %+v", res)
	}

	// An accepted prefetch reports DropNone and marks the fill.
	res = p.Send(Req{Op: OpPrefetch, Line: line(50), At: 50_000})
	if res.Dropped || res.Reason != DropNone {
		t.Fatalf("accepted prefetch: %+v", res)
	}
	demand := p.Send(Req{Op: OpFetch, Line: line(50), At: 60_000})
	if !demand.WasPrefetch {
		t.Fatal("prefetch-installed line not flagged on demand touch")
	}
}

// TestPortPrimeNotCountedAsPrefetch checks the FDIP prime path installs
// lines without prefetch attribution (Table 4 scoping).
func TestPortPrimeNotCountedAsPrefetch(t *testing.T) {
	h := newTestHierarchy(tinyConfig())
	p := h.InstPort()
	res := p.Send(Req{Op: OpPrime, Line: line(7), At: 0, Reserve: 1})
	if res.Dropped {
		t.Fatalf("prime dropped: %+v", res)
	}
	if h.L1I.Stats.PrefetchFills != 0 {
		t.Fatal("prime counted as prefetch fill")
	}
	demand := p.Send(Req{Op: OpFetch, Line: line(7), At: 10_000})
	if demand.WasPrefetch {
		t.Fatal("primed line flagged WasPrefetch on demand touch")
	}
}

// TestPortZeroCostPrefetch checks the §7.2 ceiling: a zero-cost prefetch
// installs instantly regardless of MSHR pressure.
func TestPortZeroCostPrefetch(t *testing.T) {
	h := newTestHierarchy(tinyConfig())
	p := h.InstPort()
	res := p.Send(Req{Op: OpPrefetch, Line: line(3), At: 42, ZeroCost: true})
	if res.Dropped || res.Done != 42 || res.ServedBy != LevelL1 {
		t.Fatalf("zero-cost prefetch: %+v", res)
	}
	demand := p.Send(Req{Op: OpFetch, Line: line(3), At: 43})
	if !demand.L1Hit || demand.WasInflight {
		t.Fatalf("zero-cost line not instantly resident: %+v", demand)
	}
}

// TestPortL3MSHRGatesDRAM checks the L3-before-DRAM discipline: with the
// L3 miss file saturated, a new DRAM-bound fill is issued only when an
// L3 MSHR frees, so its completion is later than an unsaturated fill's.
func TestPortL3MSHRGatesDRAM(t *testing.T) {
	cfg := tinyConfig() // L3 has 2 MSHRs
	h := newTestHierarchy(cfg)
	p := h.InstPort()
	// Two cold fetches occupy both L3 MSHRs until cycle 130.
	p.Send(Req{Op: OpFetch, Line: line(1), At: 0})
	p.Send(Req{Op: OpFetch, Line: line(2), At: 0})
	// A third cold fetch at cycle 1 reaches the L3 at 1+10+20=31 but must
	// wait for an L3 MSHR (earliest frees at 130) before DRAM issue.
	res := p.Send(Req{Op: OpFetch, Line: line(3), At: 1})
	if res.ServedBy != LevelMem {
		t.Fatalf("served by %v, want Mem", res.ServedBy)
	}
	if want := int64(130 + 100); res.Done != want {
		t.Fatalf("gated fill Done = %d, want %d", res.Done, want)
	}
}

// TestPortClassAttribution checks that data-side messages attribute L2
// misses to the data class and instruction messages to the inst class.
func TestPortClassAttribution(t *testing.T) {
	h := newTestHierarchy(tinyConfig())
	h.InstPort().Send(Req{Op: OpFetch, Line: line(1), At: 0})
	h.DataPort().Send(Req{Op: OpData, Line: line(1000), At: 0})
	if h.L2.Stats.InstMisses != 1 || h.L2.Stats.DataMisses != 1 {
		t.Fatalf("L2 class split: inst=%d data=%d, want 1/1",
			h.L2.Stats.InstMisses, h.L2.Stats.DataMisses)
	}
}
