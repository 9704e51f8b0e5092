package mem

import (
	"testing"

	"pdip/internal/cache"
	"pdip/internal/isa"
)

// newTestHierarchy builds a hierarchy the way a socket does — private L1s
// over the L2 → L3 → DRAM chain — minus the uncore's tenant port, which
// internal/uncore owns (and which imports this package).
func newTestHierarchy(cfg Config) *Hierarchy {
	l2, l3 := cache.MustNew(cfg.L2), cache.MustNew(cfg.L3)
	return MustNew(cfg, l2, l3, NewChain(l2, l3, cfg.DRAMLatency))
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.L1I.SizeBytes != 32<<10 || c.L1I.Ways != 8 || c.L1I.HitLatency != 2 || c.L1I.MSHRs != 16 {
		t.Fatalf("L1I config %+v", c.L1I)
	}
	if c.L1D.SizeBytes != 64<<10 || c.L1D.Ways != 16 {
		t.Fatalf("L1D config %+v", c.L1D)
	}
	if c.L2.SizeBytes != 1<<20 || c.L2.HitLatency != 10 || c.L2.MSHRs != 32 {
		t.Fatalf("L2 config %+v", c.L2)
	}
	if c.L3.SizeBytes != 2<<20 || c.L3.HitLatency != 20 || c.L3.MSHRs != 64 {
		t.Fatalf("L3 config %+v", c.L3)
	}
}

func TestColdFetchGoesToDRAM(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	line := isa.Addr(0x40000)
	res := h.InstPort().Send(Req{Op: OpFetch, Line: line, At: 100})
	if res.L1Hit {
		t.Fatal("cold fetch hit")
	}
	if res.ServedBy != LevelMem {
		t.Fatalf("served by %v, want Mem", res.ServedBy)
	}
	// Latency: L2 lookup(10) + L3 lookup(20) + DRAM(150) = 180 from issue.
	want := int64(100 + 10 + 20 + 150)
	if res.Done != want {
		t.Fatalf("Done = %d, want %d", res.Done, want)
	}
}

func TestInclusiveFillsServeFasterNextTime(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	a := isa.Addr(0x40000)
	first := h.InstPort().Send(Req{Op: OpFetch, Line: a, At: 0})
	// A different L1I-conflicting line is not needed; just re-fetch a
	// second line in the same L2 block region after eviction from L1I.
	// Simpler: fetch, then fetch a second cold line, then verify L2 holds
	// the first (hit latency from L2, not DRAM).
	if !h.L2.Contains(a) || !h.L3.Contains(a) {
		t.Fatal("fill was not inclusive")
	}
	_ = first
}

func TestL1HitLatency(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	line := isa.Addr(0x1000)
	h.InstPort().Send(Req{Op: OpFetch, Line: line, At: 0})
	res := h.InstPort().Send(Req{Op: OpFetch, Line: line, At: 500})
	if !res.L1Hit || res.Done != 502 {
		t.Fatalf("hit: %+v", res)
	}
}

func TestPrefetchDedup(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	line := isa.Addr(0x2000)
	r1 := h.InstPort().Send(Req{Op: OpPrefetch, Line: line, At: 0, Reserve: 2})
	if r1.Dropped {
		t.Fatal("first prefetch dropped")
	}
	r2 := h.InstPort().Send(Req{Op: OpPrefetch, Line: line, At: 1, Reserve: 2})
	if !r2.Dropped {
		t.Fatal("duplicate prefetch not dropped")
	}
}

func TestPrefetchRespectsMSHRReserve(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1I.MSHRs = 3
	h := newTestHierarchy(cfg)
	// Two prefetches fit (3 MSHRs, reserve 2 means free must be > 2).
	if r := h.InstPort().Send(Req{Op: OpPrefetch, Line: 0x40, At: 0, Reserve: 2}); r.Dropped {
		t.Fatal("prefetch dropped with 3 free MSHRs")
	}
	if r := h.InstPort().Send(Req{Op: OpPrefetch, Line: 0x80, At: 0, Reserve: 2}); !r.Dropped {
		t.Fatal("prefetch accepted with only 2 free MSHRs (reserve 2)")
	}
	// Demand fetches are never dropped — they wait.
	if r := h.InstPort().Send(Req{Op: OpFetch, Line: 0xc0, At: 0}); r.Dropped {
		t.Fatal("demand fetch dropped")
	}
}

func TestDemandWaitsWhenMSHRsFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1I.MSHRs = 1
	h := newTestHierarchy(cfg)
	first := h.InstPort().Send(Req{Op: OpFetch, Line: 0x40, At: 0}) // occupies the only MSHR
	second := h.InstPort().Send(Req{Op: OpFetch, Line: 0x80, At: 1})
	if second.Done <= first.Done {
		t.Fatalf("second demand (%d) did not wait for MSHR freed at %d", second.Done, first.Done)
	}
}

func TestZeroCostPrefetch(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	line := isa.Addr(0x3000)
	r := h.InstPort().Send(Req{Op: OpPrefetch, Line: line, At: 42, Reserve: 2, ZeroCost: true})
	if r.Dropped || r.Done != 42 {
		t.Fatalf("zero-cost prefetch: %+v", r)
	}
	res := h.InstPort().Send(Req{Op: OpFetch, Line: line, At: 43})
	if !res.L1Hit || res.WasInflight {
		t.Fatalf("demand after zero-cost prefetch: %+v", res)
	}
	if !res.WasPrefetch {
		t.Fatal("prefetch consumption not flagged")
	}
}

func TestPrimeInstDoesNotCountAsPrefetch(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	line := isa.Addr(0x5000)
	r := h.InstPort().Send(Req{Op: OpPrime, Line: line, At: 0, Reserve: 1})
	if r.Dropped {
		t.Fatal("prime dropped on empty cache")
	}
	if h.L1I.Stats.PrefetchFills != 0 {
		t.Fatal("FDIP prime counted as prefetch fill")
	}
	res := h.InstPort().Send(Req{Op: OpFetch, Line: line, At: 1})
	if res.WasPrefetch {
		t.Fatal("FDIP-primed line flagged as prefetch consumption")
	}
	if !res.L1Hit || !res.WasInflight {
		t.Fatalf("demand on primed line: %+v", res)
	}
}

func TestDataPathSeparateFromInst(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	line := isa.Addr(0x9000)
	h.DataPort().Send(Req{Op: OpData, Line: line, At: 0})
	if h.L1I.Contains(line) {
		t.Fatal("data access filled the L1I")
	}
	if !h.L1D.Contains(line) {
		t.Fatal("data access did not fill the L1D")
	}
	if h.L2.Stats.DataMisses != 1 || h.L2.Stats.InstMisses != 0 {
		t.Fatalf("L2 class split: %+v", h.L2.Stats)
	}
}

func TestL2ServesSecondCore(t *testing.T) {
	// Evict from L1I (tiny L1I), keep in L2: second fetch must be served
	// by L2 with its hit latency.
	cfg := DefaultConfig()
	cfg.L1I.SizeBytes = 2 * isa.LineSize * 8 // 2 sets × 8 ways
	h := newTestHierarchy(cfg)
	target := isa.Addr(0)
	h.InstPort().Send(Req{Op: OpFetch, Line: target, At: 0})
	// Thrash the tiny L1I with conflicting lines (same set, stride 128).
	for i := 1; i <= 8; i++ {
		h.InstPort().Send(Req{Op: OpFetch, Line: target + isa.Addr(i*2*isa.LineSize), At: 1000 + int64(i)})
	}
	if h.L1I.Contains(target) {
		t.Skip("target unexpectedly still resident")
	}
	res := h.InstPort().Send(Req{Op: OpFetch, Line: target, At: 5000})
	if res.L1Hit || res.ServedBy != LevelL2 {
		t.Fatalf("refetch served by %v (hit=%v), want L2", res.ServedBy, res.L1Hit)
	}
	if res.Done != 5000+10 {
		t.Fatalf("L2-served latency: %d, want 5010", res.Done)
	}
}

func TestPromoteInstLine(t *testing.T) {
	h := newTestHierarchy(DefaultConfig())
	line := isa.Addr(0x7000)
	h.InstPort().Send(Req{Op: OpFetch, Line: line, At: 0})
	h.PromoteInstLine(line)
	if h.L1I.PriorityLines() != 1 || h.L2.PriorityLines() != 1 {
		t.Fatal("promotion did not reach both levels")
	}
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{LevelL1, LevelL2, LevelL3, LevelMem} {
		if l.String() == "" {
			t.Fatalf("level %d has empty name", l)
		}
	}
}
