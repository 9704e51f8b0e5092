// Package cache is a miniature of the real cache level: the internal
// methods portdiscipline guards.
package cache

// Config sizes one cache level.
type Config struct {
	Name  string
	MSHRs int
}

// Cache is one set-associative level.
type Cache struct{ cfg Config }

// New builds a cache level.
func New(cfg Config) *Cache { return &Cache{cfg: cfg} }

// Access performs a demand access.
func (c *Cache) Access(at int64) bool { return at >= 0 }

// Fill installs a line.
func (c *Cache) Fill(at int64) {}

// Contains probes for a line.
func (c *Cache) Contains(line uint64) bool { return line != 0 }

// MSHRFree counts free MSHRs at a cycle.
func (c *Cache) MSHRFree(at int64) int { return c.cfg.MSHRs }

// EarliestMSHRFree reports when an MSHR frees up.
func (c *Cache) EarliestMSHRFree(at int64) int64 { return at }

// Promote sets a line's priority bit.
func (c *Cache) Promote(line uint64) {}
