// Package cache models set-associative caches with MSHR-limited outstanding
// misses, pluggable replacement (LRU and the EMISSARY front-end-criticality
// policy), and the prefetch bookkeeping (useful / useless / late) that the
// paper's Table 4 and Figure 11 report.
//
// Timing model: the simulator is cycle-timed but not event-driven. A fill
// is installed immediately with a readyAt timestamp; a demand access that
// finds the line still in flight completes at readyAt (this is a hit on an
// MSHR, i.e. the paper's "partial hit" — a late prefetch when the fill was
// prefetch-initiated). MSHR occupancy is the number of lines whose readyAt
// is still in the future.
package cache

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/invariant"
	"pdip/internal/isa"
)

// Config sizes one cache level.
type Config struct {
	// Name labels the level in stats output ("L1I", "L2", ...).
	Name string
	// SizeBytes is the total capacity; SizeBytes/(64*Ways) must be a
	// power-of-two set count.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// HitLatency is the access latency in cycles.
	HitLatency int
	// MSHRs bounds outstanding misses.
	MSHRs int
	// ProtectedWays > 0 enables EMISSARY replacement at this level with
	// that many priority-protected ways per set.
	ProtectedWays int
}

// Stats aggregates per-level counters.
type Stats = checkpoint.CacheStats

// Class distinguishes instruction- from data-side requests for stats.
type Class uint8

const (
	// ClassInst marks instruction-side requests.
	ClassInst Class = iota
	// ClassData marks data-side requests.
	ClassData
)

// Cache is one set-associative level. Line metadata lives in
// checkpoint.CacheState's set-major columns: line k of set s is index
// s*Ways + k of every column, so a lookup scans one contiguous tag row.
type Cache struct {
	cfg     Config
	setMask uint64

	tag []uint64
	lru []uint32
	// readyAt is the cycle each line's fill completes; accesses before
	// then are hits on the in-flight MSHR.
	readyAt []int64
	// valid, priority (the EMISSARY P-bit), and prefetched (a
	// prefetch-initiated fill not yet demand-hit) are per-line bits.
	valid, priority, prefetched checkpoint.Bitmask
	// owner is the requester that filled each line (shared levels only;
	// see owner.go). Nil with owner tracking off.
	owner []uint8
	tick  uint32

	// inflight holds readyAt deadlines of outstanding fills (the MSHR
	// file). Pruned lazily against the current cycle, compacting in place
	// so the backing array is reused across the whole run.
	inflight []int64
	// inflightMin caches the earliest deadline in inflight, so the common
	// "nothing to drain yet" case and the EarliestMSHRFree scan are O(1).
	// Meaningless when inflight is empty.
	inflightMin int64

	Stats Stats

	// Owner tracking (shared uncore levels only; see owner.go). Owners is
	// nil until EnableOwnerTracking, and every owner-mode branch in the hot
	// path is gated on that nil check so single-core behaviour is
	// bit-identical to a cache without the feature.
	Owners        []OwnerStats
	ownerReserve  int
	ownerUsed     []int   // in-flight fills per owner (derived from inflightOwner)
	inflightOwner []uint8 // owner column parallel to inflight
	// Preallocated scratch for EarliestMSHRFreeFor's retirement simulation.
	scratchT []int64
	scratchO []uint8
	scratchU []int
}

// New builds a cache level from cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: size and ways must be positive", cfg.Name)
	}
	numSets := cfg.SizeBytes / (isa.LineSize * cfg.Ways)
	if numSets == 0 || numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %dB/%d-way yields %d sets; must be a power of two",
			cfg.Name, cfg.SizeBytes, cfg.Ways, numSets)
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 16
	}
	n := numSets * cfg.Ways
	return &Cache{
		cfg:        cfg,
		setMask:    uint64(numSets - 1),
		tag:        make([]uint64, n),
		lru:        make([]uint32, n),
		readyAt:    make([]int64, n),
		valid:      checkpoint.NewBitmask(n),
		priority:   checkpoint.NewBitmask(n),
		prefetched: checkpoint.NewBitmask(n),
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) addr2set(line isa.Addr) (int, uint64) {
	v := uint64(line) >> isa.LineShift
	return int(v & c.setMask), v
}

// find returns the column index of line, or -1 when it is absent. It
// computes the set itself instead of calling addr2set to stay within the
// inlining budget of its hot callers (Access, Contains, Fill).
func (c *Cache) find(line isa.Addr) int {
	tag := uint64(line) >> isa.LineShift
	base := int(tag&c.setMask) * c.cfg.Ways
	for k := base; k < base+c.cfg.Ways; k++ {
		if c.tag[k] == tag && c.valid.Get(k) {
			return k
		}
	}
	return -1
}

// Contains reports whether line is present (including in-flight fills),
// without touching LRU state or stats. Prefetch queues use this to probe.
func (c *Cache) Contains(line isa.Addr) bool { return c.find(line) >= 0 }

// LookupResult describes the outcome of a demand access.
type LookupResult struct {
	// Hit is true when the line is present (possibly still in flight).
	Hit bool
	// ReadyAt is the cycle the data is available (>= now on in-flight
	// hits). Meaningless when !Hit.
	ReadyAt int64
	// WasInflight is true when the hit landed on an outstanding fill.
	WasInflight bool
	// WasPrefetch is true when the line was brought in by a prefetch and
	// this is its first demand touch.
	WasPrefetch bool
}

// Access performs a demand lookup at cycle now, updating LRU and stats.
//
//lint:hotpath
func (c *Cache) Access(line isa.Addr, now int64, class Class) LookupResult {
	c.Stats.Accesses++
	k := c.find(line)
	if k < 0 {
		c.Stats.Misses++
		if class == ClassInst {
			c.Stats.InstMisses++
		} else {
			c.Stats.DataMisses++
		}
		return LookupResult{}
	}
	c.tick++
	c.lru[k] = c.tick
	if invariant.Enabled {
		// LRU stack validity: the just-touched line must be the unique
		// MRU of its set (tick is monotonic, so a tie or inversion means
		// a replacement path updated lru out of band).
		base := k - k%c.cfg.Ways
		for i := base; i < base+c.cfg.Ways; i++ {
			if i != k && c.valid.Get(i) && c.lru[i] >= c.lru[k] {
				invariant.Failf("cache %s: LRU stack broken: touched line %#x is not MRU in its set", c.cfg.Name, uint64(line))
			}
		}
	}
	res := LookupResult{Hit: true, ReadyAt: now + int64(c.cfg.HitLatency)}
	if c.readyAt[k] > now {
		res.ReadyAt = c.readyAt[k]
		res.WasInflight = true
		c.Stats.LateHits++
	}
	if c.prefetched.Get(k) {
		res.WasPrefetch = true
		c.prefetched.SetTo(k, false)
		c.Stats.UsefulPrefetches++
		if res.WasInflight {
			c.Stats.LatePrefetches++
		}
	}
	return res
}

// MSHRFree returns the number of free MSHR entries at cycle now.
func (c *Cache) MSHRFree(now int64) int {
	c.pruneMSHR(now)
	return c.cfg.MSHRs - len(c.inflight)
}

// EarliestMSHRFree returns the cycle at which an MSHR entry will next be
// available. If one is free now, it returns now.
func (c *Cache) EarliestMSHRFree(now int64) int64 {
	c.pruneMSHR(now)
	if len(c.inflight) < c.cfg.MSHRs {
		return now
	}
	// The file is full, so the next free slot is the cached earliest
	// deadline — no scan.
	return c.inflightMin
}

// pruneMSHR drains deadlines that have passed. The cached minimum makes
// the common case — nothing drains this cycle — a single comparison; when
// something does drain, one pass compacts the slice in place (reusing the
// backing array) and recomputes the minimum as it goes.
//
//lint:hotpath
func (c *Cache) pruneMSHR(now int64) {
	if len(c.inflight) == 0 || c.inflightMin > now {
		return
	}
	if c.Owners != nil {
		c.pruneMSHROwned(now)
		return
	}
	keep := c.inflight[:0]
	min := int64(0)
	for _, t := range c.inflight {
		if t > now {
			if len(keep) == 0 || t < min {
				min = t
			}
			keep = append(keep, t)
		}
	}
	c.inflight = keep
	c.inflightMin = min
	if invariant.Enabled {
		// No-leak on drain: every MSHR entry surviving a prune must still
		// be in flight, and the cached minimum must actually be the
		// minimum; drift in either means occupancy accounting (and hence
		// prefetch drop decisions) has broken.
		for _, t := range c.inflight {
			if t <= now {
				invariant.Failf("cache %s: MSHR deadline %d not drained at cycle %d", c.cfg.Name, t, now)
			}
			if t < c.inflightMin {
				invariant.Failf("cache %s: cached MSHR minimum %d above live deadline %d", c.cfg.Name, c.inflightMin, t)
			}
		}
	}
}

// FillOpts qualifies a fill.
type FillOpts struct {
	// Prefetch marks a prefetch-initiated fill.
	Prefetch bool
	// Priority sets the EMISSARY P-bit on the installed line.
	Priority bool
	// Owner attributes the fill to a requester (shared levels only;
	// ignored unless owner tracking is enabled).
	Owner uint8
}

// Fill installs line, completing at readyAt, allocating an MSHR slot for
// the in-flight window. The caller must have checked MSHR availability.
// It returns the evicted line address, if any valid line was displaced.
func (c *Cache) Fill(line isa.Addr, now, readyAt int64, opts FillOpts) (evicted isa.Addr, hadVictim bool) {
	if k := c.find(line); k >= 0 {
		// Already present or in flight; refresh priority at most.
		if opts.Priority {
			c.priority.Set(k)
		}
		return 0, false
	}
	if readyAt > now {
		c.pruneMSHR(now)
		if len(c.inflight) == 0 || readyAt < c.inflightMin {
			c.inflightMin = readyAt
		}
		c.inflight = append(c.inflight, readyAt)
		if c.Owners != nil {
			c.inflightOwner = append(c.inflightOwner, opts.Owner)
			c.ownerUsed[opts.Owner]++
			if c.ownerUsed[opts.Owner] > c.ownerReserve {
				c.Owners[opts.Owner].MSHRSteals++
			}
		}
	}
	c.Stats.Fills++
	if opts.Prefetch {
		c.Stats.PrefetchFills++
	}
	if c.Owners != nil {
		c.Owners[opts.Owner].Fills++
	}
	set, tag := c.addr2set(line)
	base := set * c.cfg.Ways
	victim := c.pickVictim(base, now)
	if invariant.Enabled && (victim < 0 || victim >= c.cfg.Ways) {
		invariant.Failf("cache %s: victim way %d outside [0, %d)", c.cfg.Name, victim, c.cfg.Ways)
	}
	k := base + victim
	if c.valid.Get(k) {
		c.Stats.Evictions++
		if c.prefetched.Get(k) {
			c.Stats.UselessPrefetches++
		}
		if c.Owners != nil && c.owner[k] != opts.Owner {
			c.Owners[c.owner[k]].CrossEvictionsSuffered++
			c.Owners[opts.Owner].CrossEvictionsCaused++
		}
		evicted = isa.Addr(c.tag[k] << isa.LineShift)
		hadVictim = true
	}
	c.tick++
	c.tag[k] = tag
	c.lru[k] = c.tick
	c.readyAt[k] = readyAt
	c.valid.Set(k)
	c.priority.SetTo(k, opts.Priority)
	c.prefetched.SetTo(k, opts.Prefetch)
	if c.owner != nil {
		c.owner[k] = opts.Owner
	}
	if invariant.Enabled && c.find(line) < 0 {
		invariant.Failf("cache %s: line %#x absent immediately after fill", c.cfg.Name, uint64(line))
	}
	return evicted, hadVictim
}

// pickVictim chooses a way of the set starting at column index base to
// replace: LRU by default; with EMISSARY enabled, LRU among non-priority
// lines while the set holds at most ProtectedWays priority lines (falling
// back to global LRU, clearing the victim's P-bit, when the protection
// budget is exhausted or every way is priority).
func (c *Cache) pickVictim(base int, now int64) int {
	ways := c.cfg.Ways
	// Invalid way first.
	for i := 0; i < ways; i++ {
		if !c.valid.Get(base + i) {
			return i
		}
	}
	protect := c.cfg.ProtectedWays
	if protect > 0 {
		nPri := 0
		for i := 0; i < ways; i++ {
			if c.priority.Get(base + i) {
				nPri++
			}
		}
		if nPri <= protect && nPri < ways {
			// Protect priority lines: LRU among non-priority ways,
			// preferring lines that are not mid-fill.
			if v := c.lruAmong(base, now, true); v >= 0 {
				return v
			}
		}
		// Protection budget exhausted: global LRU, demoting the victim.
		v := c.lruAmong(base, now, false)
		c.priority.SetTo(base+v, false)
		return v
	}
	return c.lruAmong(base, now, false)
}

// lruAmong returns the least-recently-used way of the set starting at
// base (skipping priority lines when skipPriority), preferring lines whose
// fill has completed (evicting an in-flight line would squash an
// outstanding fill). Returns -1 if every way is skipped.
func (c *Cache) lruAmong(base int, now int64, skipPriority bool) int {
	best, bestInflight := -1, -1
	var bestLRU, bestInflightLRU uint32
	for i := 0; i < c.cfg.Ways; i++ {
		k := base + i
		if skipPriority && c.priority.Get(k) {
			continue
		}
		if c.readyAt[k] > now {
			if bestInflight == -1 || c.lru[k] < bestInflightLRU {
				bestInflight, bestInflightLRU = i, c.lru[k]
			}
			continue
		}
		if best == -1 || c.lru[k] < bestLRU {
			best, bestLRU = i, c.lru[k]
		}
	}
	if best >= 0 {
		return best
	}
	return bestInflight
}

// Promote sets the EMISSARY P-bit on a resident line; a miss is a no-op.
func (c *Cache) Promote(line isa.Addr) {
	if k := c.find(line); k >= 0 {
		c.priority.Set(k)
	}
}

// NumSets returns the set count.
func (c *Cache) NumSets() int { return int(c.setMask) + 1 }

// PriorityLines counts resident lines with the P-bit set (test support).
func (c *Cache) PriorityLines() int {
	n := 0
	for k := range c.tag {
		if c.valid.Get(k) && c.priority.Get(k) {
			n++
		}
	}
	return n
}
