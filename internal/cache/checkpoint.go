package cache

import (
	"fmt"

	"pdip/internal/checkpoint"
)

// CaptureCheckpoint clones the level's line columns (tag, LRU stamp,
// in-flight deadline, valid/P-bit/prefetched masks, and the owner column
// on shared levels), the MSHR file, the replacement clock, and the stats.
// Geometry (set count, ways) is recorded so a restore into a differently
// configured cache fails loudly.
func (c *Cache) CaptureCheckpoint() checkpoint.CacheState {
	return checkpoint.CacheState{
		Sets:          c.NumSets(),
		Ways:          c.cfg.Ways,
		Tag:           append([]uint64(nil), c.tag...),
		LRU:           append([]uint32(nil), c.lru...),
		ReadyAt:       append([]int64(nil), c.readyAt...),
		Valid:         append(checkpoint.Bitmask(nil), c.valid...),
		Priority:      append(checkpoint.Bitmask(nil), c.priority...),
		Prefetched:    append(checkpoint.Bitmask(nil), c.prefetched...),
		Tick:          c.tick,
		Inflight:      append([]int64(nil), c.inflight...),
		InflightMin:   c.inflightMin,
		Stats:         c.Stats,
		Owner:         append([]uint8(nil), c.owner...),
		InflightOwner: append([]uint8(nil), c.inflightOwner...),
		Owners:        append([]OwnerStats(nil), c.Owners...),
	}
}

// RestoreCheckpoint overwrites the cache's state from a captured state.
// The receiver must have been built with the same geometry and owner
// mode; every column length and every index-bearing value (owner ids,
// the cached MSHR minimum) is checked before anything is copied. Slices
// from st are copied, never aliased, so one checkpoint can restore many
// caches concurrently.
func (c *Cache) RestoreCheckpoint(st checkpoint.CacheState) error {
	if st.Sets != c.NumSets() || st.Ways != c.cfg.Ways {
		return fmt.Errorf("cache %s: checkpoint geometry %dx%d, cache is %dx%d",
			c.cfg.Name, st.Sets, st.Ways, c.NumSets(), c.cfg.Ways)
	}
	n := len(c.tag)
	if len(st.Tag) != n || len(st.LRU) != n || len(st.ReadyAt) != n {
		return fmt.Errorf("cache %s: checkpoint has %d/%d/%d tag/lru/readyAt entries, want %d",
			c.cfg.Name, len(st.Tag), len(st.LRU), len(st.ReadyAt), n)
	}
	if len(st.Valid) != len(c.valid) || len(st.Priority) != len(c.valid) || len(st.Prefetched) != len(c.valid) {
		return fmt.Errorf("cache %s: checkpoint bitmasks are not %d bytes", c.cfg.Name, len(c.valid))
	}
	if len(st.Inflight) > 0 {
		min := st.Inflight[0]
		for _, t := range st.Inflight {
			if t < min {
				min = t
			}
		}
		if st.InflightMin != min {
			return fmt.Errorf("cache %s: checkpoint MSHR minimum %d, in-flight minimum is %d",
				c.cfg.Name, st.InflightMin, min)
		}
	}
	if c.Owners != nil {
		if len(st.Owner) != n {
			return fmt.Errorf("cache %s: owner-tracked restore needs %d owner entries, checkpoint has %d",
				c.cfg.Name, n, len(st.Owner))
		}
		if len(st.InflightOwner) != len(st.Inflight) {
			return fmt.Errorf("cache %s: checkpoint has %d in-flight owners for %d in-flight fills",
				c.cfg.Name, len(st.InflightOwner), len(st.Inflight))
		}
		if len(st.Owners) != len(c.Owners) {
			return fmt.Errorf("cache %s: checkpoint tracks %d owners, cache tracks %d",
				c.cfg.Name, len(st.Owners), len(c.Owners))
		}
		for _, col := range [][]uint8{st.Owner, st.InflightOwner} {
			for _, o := range col {
				if int(o) >= len(c.Owners) {
					return fmt.Errorf("cache %s: checkpoint owner %d outside 0..%d", c.cfg.Name, o, len(c.Owners)-1)
				}
			}
		}
	} else if st.Owner != nil || st.InflightOwner != nil || st.Owners != nil {
		return fmt.Errorf("cache %s: checkpoint carries owner columns but owner tracking is off", c.cfg.Name)
	}
	copy(c.tag, st.Tag)
	copy(c.lru, st.LRU)
	copy(c.readyAt, st.ReadyAt)
	copy(c.valid, st.Valid)
	copy(c.priority, st.Priority)
	copy(c.prefetched, st.Prefetched)
	c.tick = st.Tick
	c.inflight = append(c.inflight[:0], st.Inflight...)
	c.inflightMin = st.InflightMin
	c.Stats = st.Stats
	if c.Owners != nil {
		copy(c.owner, st.Owner)
		c.inflightOwner = append(c.inflightOwner[:0], st.InflightOwner...)
		copy(c.Owners, st.Owners)
		// Per-owner occupancy is derived: recount it from the restored
		// owner column rather than trusting a redundant encoding.
		clear(c.ownerUsed)
		for _, o := range c.inflightOwner {
			c.ownerUsed[o]++
		}
	}
	return nil
}
