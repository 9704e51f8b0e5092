package cache

import (
	"testing"
	"testing/quick"

	"pdip/internal/isa"
)

func tiny(protected int) *Cache {
	return MustNew(Config{
		Name: "T", SizeBytes: 4 * isa.LineSize * 2, Ways: 2,
		HitLatency: 2, MSHRs: 4, ProtectedWays: protected,
	}) // 4 sets × 2 ways
}

func TestMissThenHit(t *testing.T) {
	c := tiny(0)
	line := isa.Addr(0x1000)
	if r := c.Access(line, 10, ClassInst); r.Hit {
		t.Fatal("empty cache hit")
	}
	c.Fill(line, 10, 10, FillOpts{})
	r := c.Access(line, 11, ClassInst)
	if !r.Hit || r.ReadyAt != 13 {
		t.Fatalf("hit=%v readyAt=%d, want hit at 13", r.Hit, r.ReadyAt)
	}
	if c.Stats.Misses != 1 || c.Stats.InstMisses != 1 || c.Stats.Accesses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestInflightPartialHit(t *testing.T) {
	c := tiny(0)
	line := isa.Addr(0x2000)
	c.Fill(line, 10, 50, FillOpts{}) // fill completes at 50
	r := c.Access(line, 20, ClassInst)
	if !r.Hit || !r.WasInflight || r.ReadyAt != 50 {
		t.Fatalf("in-flight access: %+v", r)
	}
	if c.Stats.LateHits != 1 {
		t.Fatalf("LateHits = %d", c.Stats.LateHits)
	}
	// After completion it is a plain hit.
	r = c.Access(line, 60, ClassInst)
	if !r.Hit || r.WasInflight {
		t.Fatalf("post-completion access: %+v", r)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(0)
	// Three lines mapping to the same set (stride = sets×linesize = 256).
	a, b, d := isa.Addr(0x0), isa.Addr(0x100), isa.Addr(0x200)
	c.Fill(a, 1, 1, FillOpts{})
	c.Fill(b, 2, 2, FillOpts{})
	c.Access(a, 3, ClassInst) // make a MRU
	evicted, had := c.Fill(d, 4, 4, FillOpts{})
	if !had || evicted != b {
		t.Fatalf("evicted %v (had=%v), want %v", evicted, had, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestMSHRAccounting(t *testing.T) {
	c := tiny(0)
	now := int64(10)
	if c.MSHRFree(now) != 4 {
		t.Fatalf("free = %d", c.MSHRFree(now))
	}
	for i := 0; i < 4; i++ {
		c.Fill(isa.Addr(0x1000+i*64), now, now+100, FillOpts{})
	}
	if c.MSHRFree(now) != 0 {
		t.Fatalf("free = %d after 4 in-flight fills", c.MSHRFree(now))
	}
	if got := c.EarliestMSHRFree(now); got != now+100 {
		t.Fatalf("EarliestMSHRFree = %d, want %d", got, now+100)
	}
	// After completion the entries expire.
	if c.MSHRFree(now+101) != 4 {
		t.Fatalf("free = %d after fills completed", c.MSHRFree(now+101))
	}
}

func TestCompletedFillUsesNoMSHR(t *testing.T) {
	c := tiny(0)
	c.Fill(0x40, 5, 5, FillOpts{}) // instant (zero-cost) fill
	if c.MSHRFree(5) != 4 {
		t.Fatal("instant fill consumed an MSHR")
	}
}

func TestPrefetchAccounting(t *testing.T) {
	c := tiny(0)
	line := isa.Addr(0x3000)
	c.Fill(line, 10, 30, FillOpts{Prefetch: true})
	if c.Stats.PrefetchFills != 1 || c.Stats.Fills != 1 {
		t.Fatalf("fills %+v", c.Stats)
	}
	// Demand before completion: useful AND late.
	r := c.Access(line, 20, ClassInst)
	if !r.WasPrefetch {
		t.Fatal("prefetch consumption not flagged")
	}
	if c.Stats.UsefulPrefetches != 1 || c.Stats.LatePrefetches != 1 {
		t.Fatalf("useful=%d late=%d", c.Stats.UsefulPrefetches, c.Stats.LatePrefetches)
	}
	// Second access is no longer a prefetch consumption.
	if r := c.Access(line, 40, ClassInst); r.WasPrefetch {
		t.Fatal("prefetch counted twice")
	}
}

func TestUselessPrefetch(t *testing.T) {
	c := tiny(0)
	// Fill the set with two prefetches, then evict one without a hit.
	c.Fill(0x000, 1, 1, FillOpts{Prefetch: true})
	c.Fill(0x100, 2, 2, FillOpts{Prefetch: true})
	c.Fill(0x200, 3, 3, FillOpts{})
	if c.Stats.UselessPrefetches != 1 {
		t.Fatalf("UselessPrefetches = %d", c.Stats.UselessPrefetches)
	}
}

func TestEmissaryProtection(t *testing.T) {
	c := tiny(1) // 2-way with 1 protected way
	pri, x, y := isa.Addr(0x000), isa.Addr(0x100), isa.Addr(0x200)
	c.Fill(pri, 1, 1, FillOpts{Priority: true})
	c.Fill(x, 2, 2, FillOpts{})
	// A new fill must evict the non-priority line even though pri is LRU.
	evicted, had := c.Fill(y, 3, 3, FillOpts{})
	if !had || evicted != x {
		t.Fatalf("evicted %v, want non-priority %v", evicted, x)
	}
	if !c.Contains(pri) {
		t.Fatal("priority line evicted despite protection")
	}
}

func TestEmissaryDemotionWhenExhausted(t *testing.T) {
	c := tiny(1)
	a, b, d := isa.Addr(0x000), isa.Addr(0x100), isa.Addr(0x200)
	c.Fill(a, 1, 1, FillOpts{Priority: true})
	c.Fill(b, 2, 2, FillOpts{Priority: true})
	// Both ways priority, budget 1: global LRU must go, demoted.
	evicted, had := c.Fill(d, 3, 3, FillOpts{})
	if !had || evicted != a {
		t.Fatalf("evicted %v, want LRU %v", evicted, a)
	}
	if c.PriorityLines() != 1 {
		t.Fatalf("priority lines = %d after demotion path", c.PriorityLines())
	}
}

func TestPromote(t *testing.T) {
	c := tiny(1)
	line := isa.Addr(0x4000)
	c.Promote(line) // miss: no-op
	c.Fill(line, 1, 1, FillOpts{})
	c.Promote(line)
	if c.PriorityLines() != 1 {
		t.Fatal("Promote did not set the P-bit")
	}
}

func TestFillExistingRefreshesPriority(t *testing.T) {
	c := tiny(1)
	line := isa.Addr(0x40)
	c.Fill(line, 1, 1, FillOpts{})
	c.Fill(line, 2, 2, FillOpts{Priority: true})
	if c.PriorityLines() != 1 {
		t.Fatal("re-fill did not set priority")
	}
	if c.Stats.Fills != 1 {
		t.Fatalf("duplicate fill counted: %d", c.Stats.Fills)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad", SizeBytes: 0, Ways: 2}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := New(Config{Name: "bad", SizeBytes: 3 * 64, Ways: 1}); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	for _, prot := range []int{-1, 9} {
		if _, err := New(Config{Name: "bad", SizeBytes: 32 << 10, Ways: 8, ProtectedWays: prot}); err == nil {
			t.Errorf("ProtectedWays %d on an 8-way cache accepted", prot)
		}
	}
	if _, err := New(Config{Name: "ok", SizeBytes: 32 << 10, Ways: 8, ProtectedWays: 8}); err != nil {
		t.Fatalf("ProtectedWays == Ways rejected: %v", err)
	}
}

func TestContainsAfterFillProperty(t *testing.T) {
	c := MustNew(Config{Name: "P", SizeBytes: 64 << 10, Ways: 8, HitLatency: 2, MSHRs: 16})
	f := func(a uint32) bool {
		line := isa.Addr(a).Line()
		c.Fill(line, 1, 1, FillOpts{})
		return c.Contains(line)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEvictedAddressReconstruction(t *testing.T) {
	c := tiny(0)
	a, b, d := isa.Addr(0x7000), isa.Addr(0x7100), isa.Addr(0x7200)
	c.Fill(a, 1, 1, FillOpts{})
	c.Fill(b, 2, 2, FillOpts{})
	evicted, had := c.Fill(d, 3, 3, FillOpts{})
	if !had || (evicted != a && evicted != b) {
		t.Fatalf("evicted %v, want one of the original lines", evicted)
	}
}

func TestEmissaryInvariantProperty(t *testing.T) {
	// Under any interleaving of priority/plain fills, the number of
	// priority lines per set never exceeds the way count, and protected
	// lines survive plain fills while the budget holds.
	c := MustNew(Config{Name: "E", SizeBytes: 8 * isa.LineSize * 4, Ways: 4,
		HitLatency: 2, MSHRs: 8, ProtectedWays: 2})
	f := func(ops []uint16) bool {
		for i, op := range ops {
			line := isa.Addr(op&0xff) * isa.LineSize
			pri := op&0x100 != 0
			c.Fill(line, int64(i), int64(i), FillOpts{Priority: pri})
		}
		ways := c.cfg.Ways
		for base := 0; base < len(c.tag); base += ways {
			nPri := 0
			for k := base; k < base+ways; k++ {
				if c.valid.Get(k) && c.priority.Get(k) {
					nPri++
				}
			}
			if nPri > ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRNeverNegativeProperty(t *testing.T) {
	c := MustNew(Config{Name: "M", SizeBytes: 16 << 10, Ways: 4, HitLatency: 2, MSHRs: 4})
	now := int64(0)
	f := func(step uint8, lineSel uint16) bool {
		now += int64(step%7) + 1
		line := isa.Addr(lineSel) * isa.LineSize
		if c.MSHRFree(now) > 0 && !c.Contains(line) {
			c.Fill(line, now, now+20, FillOpts{})
		}
		free := c.MSHRFree(now)
		return free >= 0 && free <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMSHROccupancyAcrossPruneFillInterleavings pins MSHR occupancy and
// the earliest-free cycle against a reference model through adversarial
// prune/fill interleavings: out-of-order deadlines, same-cycle expiry and
// refill, time jumps that drain everything, and full-file backpressure.
// The cached-minimum fast path and the in-place compaction must agree
// with the brute-force recount at every step.
func TestMSHROccupancyAcrossPruneFillInterleavings(t *testing.T) {
	c := MustNew(Config{Name: "M", SizeBytes: 64 << 10, Ways: 4, HitLatency: 2, MSHRs: 4})
	// ref is the model: the multiset of live deadlines.
	var ref []int64
	refFree := func(now int64) int {
		n := 0
		for _, d := range ref {
			if d > now {
				n++
			}
		}
		return 4 - n
	}
	refEarliest := func(now int64) int64 {
		if refFree(now) > 0 {
			return now
		}
		min := int64(0)
		for _, d := range ref {
			if d > now && (min == 0 || d < min) {
				min = d
			}
		}
		return min
	}
	check := func(now int64) {
		t.Helper()
		if got, want := c.MSHRFree(now), refFree(now); got != want {
			t.Fatalf("cycle %d: MSHRFree = %d, want %d (ref %v)", now, got, want, ref)
		}
		if got, want := c.EarliestMSHRFree(now), refEarliest(now); got != want {
			t.Fatalf("cycle %d: EarliestMSHRFree = %d, want %d (ref %v)", now, got, want, ref)
		}
	}
	fill := func(line isa.Addr, now, readyAt int64) {
		c.Fill(line, now, readyAt, FillOpts{})
		if readyAt > now {
			ref = append(ref, readyAt)
		}
	}

	// Out-of-order deadlines: longest first.
	fill(0x1000, 10, 200)
	fill(0x1040, 11, 50)
	fill(0x1080, 12, 120)
	check(12)
	// Partial drain: the short one expires, the others survive.
	check(51)
	// Refill on the same cycle a deadline expires.
	fill(0x10c0, 120, 140)
	check(120)
	// Fill the file and verify full-file earliest-free (cached minimum).
	fill(0x1100, 121, 125)
	check(121)
	// Drain two at once with a time jump.
	check(141)
	// Instant fill (readyAt == now) consumes nothing.
	fill(0x1140, 150, 150)
	check(150)
	// Drain everything, then rebuild from empty.
	check(1000)
	fill(0x2000, 1001, 1030)
	fill(0x2040, 1001, 1010)
	check(1001)
	check(1010)
	check(1030)
}
