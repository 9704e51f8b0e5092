// Owner tracking: when a cache level is shared between cores (the uncore
// L2/L3), every in-flight fill and every resident line is attributed to
// the requester ("owner") that caused it, and the MSHR file is split into
// per-owner reserved slots plus a free-for-all shared pool. The machinery
// is strictly opt-in: until EnableOwnerTracking is called, none of these
// fields exist and every hot-path check short-circuits on a nil slice, so
// a single-core hierarchy executes exactly the pre-owner code path.
package cache

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/recycle"
)

// OwnerStats aggregates per-owner interference counters at one shared
// level.
type OwnerStats = checkpoint.OwnerStats

// EnableOwnerTracking switches the cache into shared (owner-attributed)
// mode for the given number of owners, reserving reserve MSHR slots per
// owner; the remaining MSHRs - owners*reserve entries form a shared pool.
// Must be called on a fresh cache, before any fill.
func (c *Cache) EnableOwnerTracking(owners, reserve int) error {
	if owners < 2 || owners > 256 {
		return fmt.Errorf("cache %s: owner tracking needs 2..256 owners, got %d", c.cfg.Name, owners)
	}
	if reserve < 0 || owners*reserve > c.cfg.MSHRs {
		return fmt.Errorf("cache %s: %d owners x %d reserved MSHRs exceeds the %d-entry file",
			c.cfg.Name, owners, reserve, c.cfg.MSHRs)
	}
	if len(c.inflight) != 0 || c.Stats.Fills != 0 {
		return fmt.Errorf("cache %s: owner tracking must be enabled before use", c.cfg.Name)
	}
	c.Owners = make([]OwnerStats, owners)
	c.owner = recycle.Make[[]uint8](len(c.tag))
	c.ownerReserve = reserve
	c.ownerUsed = make([]int, owners)
	c.inflightOwner = make([]uint8, 0, c.cfg.MSHRs)
	c.scratchT = make([]int64, 0, c.cfg.MSHRs)
	c.scratchO = make([]uint8, 0, c.cfg.MSHRs)
	c.scratchU = make([]int, owners)
	return nil
}

// OwnersEnabled reports whether the level tracks per-owner attribution.
func (c *Cache) OwnersEnabled() bool { return c.Owners != nil }

// ResetOwnerStats zeroes the per-owner counters (measurement-phase reset).
func (c *Cache) ResetOwnerStats() {
	for i := range c.Owners {
		c.Owners[i] = OwnerStats{}
	}
}

// sharedInUse returns how many in-flight fills are charged to the shared
// pool: each owner's use beyond its reserved share.
func sharedInUse(used []int, reserve int) int {
	n := 0
	for _, u := range used {
		if u > reserve {
			n += u - reserve
		}
	}
	return n
}

// canIssueOwner is the MSHR admission rule in owner mode: an owner under
// its reserve may always allocate (the reserve is physically guaranteed —
// shared-pool use never exceeds MSHRs - owners*reserve, so a slot is
// free); beyond the reserve it competes for the shared pool.
func canIssueOwner(mshrs, reserve int, used []int, total, owner int) bool {
	if total >= mshrs {
		return false
	}
	if used[owner] < reserve {
		return true
	}
	return sharedInUse(used, reserve) < mshrs-len(used)*reserve
}

// OwnerCanIssue reports whether owner may allocate an MSHR at cycle now
// without waiting. Speculative fills at a contended shared level use this
// to drop rather than queue behind another tenant's misses.
func (c *Cache) OwnerCanIssue(now int64, owner int) bool {
	if c.Owners == nil {
		return c.MSHRFree(now) > 0
	}
	c.pruneMSHR(now)
	return canIssueOwner(c.cfg.MSHRs, c.ownerReserve, c.ownerUsed, len(c.inflight), owner)
}

// EarliestMSHRFreeFor returns the earliest cycle >= now at which owner may
// allocate an MSHR under the reservation policy. With owner tracking off
// it degenerates to EarliestMSHRFree. The search simulates in-flight
// retirements in deadline order on scratch (insertion sort — the file is
// small and sort.Slice would allocate), so the hot path stays
// allocation-free. The scratch starts at the MSHR count, but a level that
// does not gate issue installs fills past it, so the file can outgrow it:
// the grown scratch is kept for the next search.
func (c *Cache) EarliestMSHRFreeFor(now int64, owner int) int64 {
	if c.Owners == nil {
		return c.EarliestMSHRFree(now)
	}
	c.pruneMSHR(now)
	if canIssueOwner(c.cfg.MSHRs, c.ownerReserve, c.ownerUsed, len(c.inflight), owner) {
		return now
	}
	st := append(c.scratchT[:0], c.inflight...)
	so := append(c.scratchO[:0], c.inflightOwner...)
	c.scratchT, c.scratchO = st, so
	for i := 1; i < len(st); i++ {
		t, o := st[i], so[i]
		j := i - 1
		for j >= 0 && st[j] > t {
			st[j+1], so[j+1] = st[j], so[j]
			j--
		}
		st[j+1], so[j+1] = t, o
	}
	used := c.scratchU
	copy(used, c.ownerUsed)
	total := len(st)
	for i := range st {
		used[so[i]]--
		total--
		if canIssueOwner(c.cfg.MSHRs, c.ownerReserve, used, total, owner) {
			return st[i]
		}
	}
	// Unreachable: an empty file always admits every owner.
	return c.inflightMin
}

// pruneMSHROwned is pruneMSHR's owner-mode twin: it compacts the deadline
// and owner columns in parallel and returns freed slots to their owners.
func (c *Cache) pruneMSHROwned(now int64) {
	keepT := c.inflight[:0]
	keepO := c.inflightOwner[:0]
	min := int64(0)
	for i, t := range c.inflight {
		o := c.inflightOwner[i]
		if t > now {
			if len(keepT) == 0 || t < min {
				min = t
			}
			keepT = append(keepT, t)
			keepO = append(keepO, o)
		} else {
			c.ownerUsed[o]--
		}
	}
	c.inflight = keepT
	c.inflightOwner = keepO
	c.inflightMin = min
}
