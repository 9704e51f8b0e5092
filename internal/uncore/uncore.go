// Package uncore owns the shared half of a multi-core socket's memory
// system: one L2 and one L3 (with DRAM behind them) contended by N
// requesting cores. Each core sees the uncore through its own tenant port
// — a mem.Port that stamps the requester id onto every message and
// attributes traffic, drops, and fill latency to that tenant — while the
// caches themselves track per-owner MSHR occupancy and eviction
// interference (cache.OwnerStats). All uncore metrics are named in the
// uncore's own registry under the "uncore." namespace; per-core registries
// never host another tenant's counters (enforced by the tenantnamespace
// simlint rule).
//
// Every core runs behind an uncore: a single-core run is a one-requester
// uncore, for which owner tracking stays off, so its port chain executes
// the plain (uncontended) miss path.
package uncore

import (
	"fmt"

	"pdip/internal/cache"
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/mem"
	"pdip/internal/metrics"
)

// Config sizes the shared levels and the contention policy.
type Config struct {
	// L2 and L3 size the shared caches (per-tenant L1s live in the cores).
	L2, L3 cache.Config
	// DRAMLatency is the flat main-memory latency in cycles.
	DRAMLatency int
	// Requesters is the number of cores sharing the uncore.
	Requesters int
	// L2Reserve/L3Reserve are the per-requester reserved MSHR slots at
	// each shared level; the rest of the file is a shared pool. Zero picks
	// the default split (half the file divided evenly); negative reserves
	// nothing (the whole file is contended).
	L2Reserve, L3Reserve int
}

// Uncore is the assembled shared memory system behind N cores.
type Uncore struct {
	L2, L3      *cache.Cache
	DRAMLatency int

	chain mem.Port // L2 → L3 → DRAM, shared by every tenant port
	ports []*tenantPort
	// portStats holds each tenant port's counters, indexed by requester
	// id; port i counts through &portStats[i].
	portStats []checkpoint.TenantPortCounters
	reg       *metrics.Registry
}

// New builds the shared levels, enables owner tracking when more than one
// requester contends for them, and wires one tenant port per requester.
func New(cfg Config) (*Uncore, error) {
	if cfg.Requesters < 1 || cfg.Requesters > 256 {
		return nil, fmt.Errorf("uncore: need 1..256 requesters, got %d", cfg.Requesters)
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	l3, err := cache.New(cfg.L3)
	if err != nil {
		l2.Release()
		return nil, err
	}
	dram := cfg.DRAMLatency
	if dram <= 0 {
		dram = 150
	}
	u := &Uncore{L2: l2, L3: l3, DRAMLatency: dram, reg: metrics.NewRegistry()}
	if cfg.Requesters > 1 {
		if err := l2.EnableOwnerTracking(cfg.Requesters, reserveFor(cfg.L2Reserve, l2.Config().MSHRs, cfg.Requesters)); err != nil {
			return nil, err
		}
		if err := l3.EnableOwnerTracking(cfg.Requesters, reserveFor(cfg.L3Reserve, l3.Config().MSHRs, cfg.Requesters)); err != nil {
			return nil, err
		}
	}
	u.chain = mem.NewChain(l2, l3, dram)
	u.L2.RegisterMetrics(u.reg, "uncore.l2")
	u.L3.RegisterMetrics(u.reg, "uncore.l3")
	u.ports = make([]*tenantPort, cfg.Requesters)
	u.portStats = make([]checkpoint.TenantPortCounters, cfg.Requesters)
	for i := range u.ports {
		u.ports[i] = newTenantPort(u, i)
	}
	return u, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Uncore {
	u, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// reserveFor resolves a configured per-requester MSHR reserve: zero means
// the default split (half the file divided evenly among requesters),
// negative means no reservation, and explicit values are clamped so the
// reserves never exceed the file.
func reserveFor(configured, mshrs, requesters int) int {
	r := configured
	switch {
	case r == 0:
		r = mshrs / (2 * requesters)
	case r < 0:
		r = 0
	}
	if r*requesters > mshrs {
		r = mshrs / requesters
	}
	return r
}

// Release hands the L2 and L3 line columns to the recycler (see
// cache.Cache.Release); the uncore must not be used afterwards.
func (u *Uncore) Release() {
	u.L2.Release()
	u.L3.Release()
}

// Requesters returns the number of tenant ports.
func (u *Uncore) Requesters() int { return len(u.ports) }

// Port returns requester i's front port into the shared chain. Every
// message through it is stamped with the requester id, so drops, delays,
// and evictions at the shared levels attribute to the right tenant.
func (u *Uncore) Port(i int) mem.Port { return u.ports[i] }

// Metrics returns the uncore's registry ("uncore.*" namespace: shared
// cache stats, per-tenant traffic, and interference counters).
func (u *Uncore) Metrics() *metrics.Registry { return u.reg }

// MetricsSnapshot captures every uncore metric at this instant.
func (u *Uncore) MetricsSnapshot() metrics.Snapshot { return u.reg.Snapshot() }

// ResetStats zeroes the shared-level stats, the per-owner interference
// counters, and the tenant ports' counters — the socket-wide measurement
// reset after warmup.
func (u *Uncore) ResetStats() {
	clear(u.portStats)
	u.L2.Stats = cache.Stats{}
	u.L3.Stats = cache.Stats{}
	u.L2.ResetOwnerStats()
	u.L3.ResetOwnerStats()
}

// tenantPort is requester i's view of the shared chain: it stamps the
// requester id on every message (the cache-level owner attribution keys
// off it) and counts the reply into the uncore's portStats[i].
type tenantPort struct {
	id   uint8
	down mem.Port
	ct   *checkpoint.TenantPortCounters
}

func newTenantPort(u *Uncore, i int) *tenantPort {
	prefix := fmt.Sprintf("uncore.tenant%d", i)
	ct := &u.portStats[i]
	u.reg.Counter(prefix+".requests", &ct.Requests)
	u.reg.Counter(prefix+".l2_hits", &ct.L2Hits)
	u.reg.Counter(prefix+".l3_hits", &ct.L3Hits)
	u.reg.Counter(prefix+".mem_fills", &ct.MemFills)
	u.reg.Counter(prefix+".l2_misses", &ct.L2Misses)
	u.reg.Counter(prefix+".l3_misses", &ct.L3Misses)
	u.reg.Counter(prefix+".spec_dropped", &ct.SpecDropped)
	u.reg.Counter(prefix+".fill_cycles", &ct.FillCycles)
	if u.L2.OwnersEnabled() {
		registerOwnerMetrics(u.reg, prefix+".l2", &u.L2.Owners[i])
		registerOwnerMetrics(u.reg, prefix+".l3", &u.L3.Owners[i])
	}
	return &tenantPort{id: uint8(i), down: u.chain, ct: ct}
}

// registerOwnerMetrics binds one tenant's interference counters at one
// shared level (cache.OwnerStats fields, maintained by the cache and the
// port chain).
func registerOwnerMetrics(reg *metrics.Registry, prefix string, o *cache.OwnerStats) {
	reg.Counter(prefix+".fills", &o.Fills)
	reg.Counter(prefix+".mshr_steals", &o.MSHRSteals)
	reg.Counter(prefix+".delayed_fills", &o.DelayedFills)
	reg.Counter(prefix+".delay_cycles", &o.DelayCycles)
	reg.Counter(prefix+".spec_dropped", &o.SpecDropped)
	reg.Counter(prefix+".cross_evictions", &o.CrossEvictionsSuffered)
	reg.Counter(prefix+".cross_evictions_caused", &o.CrossEvictionsCaused)
}

// Send implements mem.Port.
//
//lint:hotpath
func (p *tenantPort) Send(req mem.Req) mem.AccessResult {
	req.Src = p.id
	// Tenants are separate address spaces (distinct co-run services), but
	// the synthetic programs all generate low line addresses, so without
	// disambiguation co-tenants would constructively hit on each other's
	// fills. Folding the tenant id into untouched high address bits keeps
	// the shared levels honest: interference is capacity and MSHR
	// contention, never accidental sharing. Tenant 0's bias is zero, so a
	// 1-tenant socket forwards addresses untouched (the N=1 bit-identity
	// contract).
	req.Line ^= isa.Addr(p.id) << 56
	res := p.down.Send(req)
	ct := p.ct
	ct.Requests++
	if res.Dropped {
		ct.SpecDropped++
		return res
	}
	switch res.ServedBy {
	case mem.LevelL2:
		ct.L2Hits++
	case mem.LevelL3:
		ct.L2Misses++
		ct.L3Hits++
	case mem.LevelMem:
		ct.L2Misses++
		ct.L3Misses++
		ct.MemFills++
	}
	if res.Done > req.At {
		ct.FillCycles += uint64(res.Done - req.At)
	}
	return res
}
