package core

import (
	"fmt"

	"pdip/internal/cfg"
	"pdip/internal/mem"
	"pdip/internal/metrics"
	"pdip/internal/pipeline"
	"pdip/internal/trace"
	"pdip/internal/uncore"
)

// SocketTenant describes one core of a socket: its instruction source and
// its core-private configuration. The shared-level halves of every
// tenant's Config.Mem (L2, L3, DRAM latency) must agree — there is only
// one uncore.
type SocketTenant struct {
	// Prog is the synthetic program the tenant walks; may be nil when Src
	// drives the core (trace replay), exactly as in NewWithSource.
	Prog *cfg.Program
	// Src optionally replaces the CFG walker with a trace source.
	Src trace.OracleSource
	// Config is the tenant's core configuration.
	Config Config
}

// SocketConfig sets socket-wide policy.
type SocketConfig struct {
	// SharedPrefetcher shares tenant 0's prefetcher instance across every
	// core — the paper-motivated "one PDIP table for the socket" mode, as
	// opposed to the default per-core tables. All tenants then train and
	// query the same table, interleaved in arbitration order.
	SharedPrefetcher bool
	// L2Reserve/L3Reserve are the per-tenant reserved MSHR shares at the
	// shared levels (see uncore.Config; zero picks the default split).
	L2Reserve, L3Reserve int
}

// tenantFinal is one tenant's quota crossing in the current Run. A tenant
// that reaches its quota while co-tenants are still running keeps
// executing (it must keep contending for the uncore), so its reported
// result is frozen at the crossing and every tenant is measured over
// exactly n instructions. The tenants that end the run are read live —
// their counters are the crossing values — so a one-tenant run never
// takes a snapshot.
type tenantFinal struct {
	done   bool
	frozen bool
	res    Result
	snap   metrics.Snapshot
}

// Socket steps N cores in lockstep against one shared uncore; it is the
// only cycle loop in the simulator (a core built by New is the one tenant
// of its own socket). Arbitration at the shared port is deterministic
// round-robin: within a cycle the cores tick in rotating order (core
// (cycle mod N) first), so no tenant holds static priority and a replay
// of the same tenants is bit-identical.
type Socket struct {
	cores []*Core
	unc   *uncore.Uncore
	cfg   SocketConfig

	now int64
	// first is the core that ticks first in the next cycle (now mod N),
	// advanced incrementally so the per-cycle step divides nothing.
	first int
	noFF  bool

	targets []uint64
	finals  []tenantFinal
}

// NewSocket builds a socket over the given tenants. Tenant configs must
// agree on the shared-level geometry (L2, L3, DRAM) and the fast-forward
// mode; everything core-private (benchmark, policy, prefetcher, BTB, seed)
// may differ per tenant.
func NewSocket(tenants []SocketTenant, sc SocketConfig) (*Socket, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("socket: need at least one tenant")
	}
	base := tenants[0].Config
	for i, t := range tenants {
		if err := t.Config.Validate(); err != nil {
			return nil, fmt.Errorf("socket: tenant %d: %w", i, err)
		}
		c := t.Config
		if c.Mem.L2 != base.Mem.L2 || c.Mem.L3 != base.Mem.L3 || c.Mem.DRAMLatency != base.Mem.DRAMLatency {
			return nil, fmt.Errorf("socket: tenant %d shared-level config (L2/L3/DRAM) differs from tenant 0", i)
		}
		if c.NoFastForward != base.NoFastForward {
			return nil, fmt.Errorf("socket: tenant %d fast-forward mode differs from tenant 0 (idle skip is a socket-wide decision)", i)
		}
	}
	unc, err := uncore.New(uncore.Config{
		L2:          base.Mem.L2,
		L3:          base.Mem.L3,
		DRAMLatency: base.Mem.DRAMLatency,
		Requesters:  len(tenants),
		L2Reserve:   sc.L2Reserve,
		L3Reserve:   sc.L3Reserve,
	})
	if err != nil {
		return nil, err
	}
	s := &Socket{
		cores:   make([]*Core, 0, len(tenants)),
		unc:     unc,
		cfg:     sc,
		noFF:    base.NoFastForward,
		targets: make([]uint64, len(tenants)),
		finals:  make([]tenantFinal, len(tenants)),
	}
	for i, t := range tenants {
		c := t.Config
		if sc.SharedPrefetcher && i > 0 {
			c.Prefetcher = tenants[0].Config.Prefetcher
		}
		hier, err := mem.New(c.Mem, unc.L2, unc.L3, unc.Port(i))
		if err != nil {
			return nil, err
		}
		co, err := newCore(t.Prog, t.Src, c, hier)
		if err != nil {
			return nil, fmt.Errorf("socket: tenant %d: %w", i, err)
		}
		co.sock = s
		s.cores = append(s.cores, co)
	}
	return s, nil
}

// Release ends the socket's life. Every table its caches, predictors,
// prefetchers and walkers took from the recycler (internal/recycle) goes
// back for the next socket the process builds, and the socket drops it,
// so a released socket panics when it is used again. Results, metric
// snapshots, samples and checkpoints taken before stay valid: none of
// them aliases a table. A shared prefetcher is released once; releasing
// twice is a no-op.
func (s *Socket) Release() {
	if s.unc == nil {
		return
	}
	for i, co := range s.cores {
		co.release(i == 0 || !s.cfg.SharedPrefetcher)
	}
	s.unc.Release()
	s.unc = nil
}

// NumCores returns the tenant count.
func (s *Socket) NumCores() int { return len(s.cores) }

// Core returns tenant i's core (tests and checkpoint probing).
func (s *Socket) Core(i int) *Core { return s.cores[i] }

// Uncore returns the shared uncore.
func (s *Socket) Uncore() *uncore.Uncore { return s.unc }

// Cycles returns the socket clock (every core's clock is in lockstep).
func (s *Socket) Cycles() int64 { return s.now }

// step advances the socket one cycle: every core ticks once, in rotating
// round-robin order so shared-port priority circulates, then the
// socket-wide idle skip runs (only when every core is provably idle).
//
//lint:hotpath
func (s *Socket) step() {
	s.now++
	n := len(s.cores)
	for k, i := 0, s.first; k < n; k++ {
		s.cores[i].tickCycle()
		if i++; i == n {
			i = 0
		}
	}
	if s.first++; s.first == n {
		s.first = 0
	}
	if !s.noFF {
		s.fastForward()
	}
}

// fastForward skips cycles that cannot change architectural state: every
// stage of every core lower-bounds its next event (pipeline.Sleeper), and
// when the earliest bound T is beyond the next cycle, the clock jumps to
// T-1 with each core applying the skipped window's bookkeeping in bulk
// (skipIdle), keeping the lockstep clocks identical. The next step then
// ticks cycle T normally. When every stage reports Never (a true
// deadlock) nothing is skipped, so Run's cycle-budget guard still fires.
func (s *Socket) fastForward() {
	next := pipeline.Never
	for _, co := range s.cores {
		if t := co.nextEventAt(); t < next {
			next = t
		}
	}
	if next <= s.now+1 || next == pipeline.Never {
		return
	}
	n := next - s.now - 1
	for _, co := range s.cores {
		co.skipIdle(n)
	}
	s.now += n
	s.first = int((int64(s.first) + n) % int64(len(s.cores)))
}

// Step advances the socket exactly one arbitration round: one cycle for
// every core plus any socket-wide idle skip. Exposed for benchmarks
// (BenchmarkMicroSocketStep) and fine-grained tests; Run is the bulk
// driver.
func (s *Socket) Step() { s.step() }

// Run advances the socket until every tenant has retired n more
// instructions. A tenant that reaches its quota first keeps running — it
// must keep contending for the shared levels — but its Result and metric
// snapshot are frozen at the crossing (TenantResult), so each tenant is
// measured over exactly n instructions. Returns an error when the cycle
// budget explodes (deadlock or pathological configuration guard).
func (s *Socket) Run(n uint64) error {
	if s.unc == nil {
		panic("core: Run on a released socket")
	}
	maxPer := 0
	for i, co := range s.cores {
		s.targets[i] = co.retired + n
		s.finals[i] = tenantFinal{}
		mp := co.cfg.MaxCyclesPerInst
		if mp <= 0 {
			mp = 400
		}
		if mp > maxPer {
			maxPer = mp
		}
	}
	budget := s.now + int64(n)*int64(maxPer) + 100_000
	running := len(s.cores)
	if n == 0 {
		running = 0 // every tenant already sits at its quota
	}
	for running > 0 {
		s.step()
		crossed := 0
		for i, co := range s.cores {
			if !s.finals[i].done && co.retired >= s.targets[i] {
				crossed++
			}
		}
		if crossed > 0 {
			running -= crossed
			for i, co := range s.cores {
				f := &s.finals[i]
				if f.done || co.retired < s.targets[i] {
					continue
				}
				f.done = true
				if running > 0 {
					f.frozen, f.res, f.snap = true, co.Result(), co.MetricsSnapshot()
				}
			}
		}
		if s.now > budget {
			return fmt.Errorf("socket: cycle budget exceeded (%d cycles, %d of %d tenants unfinished) — likely a deadlock or pathological configuration",
				s.now, running, len(s.cores))
		}
	}
	return nil
}

// TenantResult returns tenant i's result and metric snapshot at its most
// recent Run quota crossing: frozen there when co-tenants ran on, read
// live for the tenants that ended the run.
func (s *Socket) TenantResult(i int) (Result, metrics.Snapshot) {
	if f := &s.finals[i]; f.frozen {
		return f.res, f.snap
	}
	co := s.cores[i]
	return co.Result(), co.MetricsSnapshot()
}

// ResetStats zeroes every tenant's measurement counters and the uncore's
// (shared stats, per-owner interference, uncore registry), keeping all
// architectural state warm — the socket-wide post-warmup reset.
func (s *Socket) ResetStats() {
	for i, co := range s.cores {
		co.resetStats()
		s.finals[i] = tenantFinal{}
	}
	s.unc.ResetStats()
}

// InterferenceSnapshot captures the uncore registry: shared L2/L3 stats
// plus per-tenant traffic and interference counters.
func (s *Socket) InterferenceSnapshot() metrics.Snapshot {
	return s.unc.MetricsSnapshot()
}

// CombinedSnapshot merges every tenant's TenantResult snapshot (prefixed
// "tenant<i>.") with the uncore registry into one snapshot — the flat
// socket-wide namespace used for JSON export and cross-run diffing.
func (s *Socket) CombinedSnapshot() metrics.Snapshot {
	out := metrics.Snapshot{
		Counters: make(map[string]uint64),
		Gauges:   make(map[string]float64),
	}
	for i := range s.cores {
		prefix := fmt.Sprintf("tenant%d.", i)
		_, snap := s.TenantResult(i)
		for name, v := range snap.Counters {
			out.Counters[prefix+name] = v
		}
		for name, v := range snap.Gauges {
			out.Gauges[prefix+name] = v
		}
	}
	u := s.unc.MetricsSnapshot()
	for name, v := range u.Counters {
		out.Counters[name] = v
	}
	for name, v := range u.Gauges {
		out.Gauges[name] = v
	}
	return out
}
