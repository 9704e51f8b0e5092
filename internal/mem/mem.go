// Package mem wires the cache levels of Table 1 into a hierarchy of
// request/response ports. A core's Hierarchy holds its private L1I and
// L1D, whose two front ports carry every access the core makes (demand
// fetch, FDIP prime, PQ prefetch, demand data); their misses leave
// through a port into the L2 → L3 → DRAM chain, which internal/uncore
// owns and shares between the cores of a socket. Latencies accumulate
// down the hierarchy (L1 2, L2 10, L3 20, then DRAM), fills are
// inclusive, and MSHR exhaustion delays demands but drops prefetches, as
// in the paper's §5. See port.go for the message model.
package mem

import (
	"pdip/internal/cache"
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
)

// Level identifies which level served an access.
type Level = checkpoint.Level

// The levels, nearest first.
const (
	LevelL1  = checkpoint.LevelL1
	LevelL2  = checkpoint.LevelL2
	LevelL3  = checkpoint.LevelL3
	LevelMem = checkpoint.LevelMem
)

// Config sizes the hierarchy.
type Config struct {
	L1I, L1D, L2, L3 cache.Config
	// DRAMLatency is the flat main-memory latency in cycles.
	DRAMLatency int
}

// DefaultConfig mirrors the paper's Table 1 (Golden Cove-like).
func DefaultConfig() Config {
	return Config{
		L1I:         cache.Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 2, MSHRs: 16},
		L1D:         cache.Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 16, HitLatency: 2, MSHRs: 16},
		L2:          cache.Config{Name: "L2", SizeBytes: 1 << 20, Ways: 16, HitLatency: 10, MSHRs: 32},
		L3:          cache.Config{Name: "L3", SizeBytes: 2 << 20, Ways: 16, HitLatency: 20, MSHRs: 64},
		DRAMLatency: 150,
	}
}

// Hierarchy is one core's view of the memory system: its private L1I and
// L1D, each fronted by a port whose misses exit through the same
// downstream port, so a fill started by either side is visible to both
// below L1 — the inclusive shared-L2 behaviour the paper models. L2 and
// L3 are views of the caches behind that port (owned by the uncore), kept
// so EMISSARY promotion and the core's cache.l2/cache.l3 metric bindings
// observe the shared state.
type Hierarchy struct {
	L1I, L1D, L2, L3 *cache.Cache

	inst *l1Port // L1I front port (fetch/prefetch/prime)
	data *l1Port // L1D front port (demand data)
}

// New builds a hierarchy's private half — fresh L1I and L1D — over down,
// the port into the L2 → L3 → DRAM chain (NewChain) whose caches are l2
// and l3:
//
//	L1I ─┐
//	     ├─ down ── L2 ── L3 ── DRAM
//	L1D ─┘
func New(cfg Config, l2, l3 *cache.Cache, down Port) (*Hierarchy, error) {
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		l1i.Release()
		return nil, err
	}
	return &Hierarchy{
		L1I:  l1i,
		L1D:  l1d,
		L2:   l2,
		L3:   l3,
		inst: &l1Port{c: l1i, down: down, class: cache.ClassInst},
		data: &l1Port{c: l1d, down: down, class: cache.ClassData},
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config, l2, l3 *cache.Cache, down Port) *Hierarchy {
	h, err := New(cfg, l2, l3, down)
	if err != nil {
		panic(err)
	}
	return h
}

// NewChain wires the L2 → L3 → DRAM half of the port chain over caches
// built by the caller (internal/uncore, with owner tracking enabled when
// several cores contend) and returns its upstream (L2-facing) port. The
// L3 gates its MSHR before issuing to DRAM (a saturated miss file delays
// the DRAM command); the L2's fill instead completes no earlier than its
// own MSHR frees.
func NewChain(l2, l3 *cache.Cache, dramLatency int) Port {
	if dramLatency <= 0 {
		dramLatency = 150
	}
	l3p := &levelPort{c: l3, down: &dramPort{latency: dramLatency}, level: LevelL3, gateMSHR: true}
	return &levelPort{c: l2, down: l3p, level: LevelL2}
}

// InstPort returns the instruction-side front port (demand fetch, FDIP
// prime, and PQ prefetch messages).
func (h *Hierarchy) InstPort() Port { return h.inst }

// DataPort returns the data-side front port (demand loads/stores).
func (h *Hierarchy) DataPort() Port { return h.data }

// AccessResult describes one hierarchy access — the reply message of the
// port model.
type AccessResult struct {
	// Done is the cycle the data is available to the requester.
	Done int64
	// L1Hit is true when the first-level cache held the line (possibly
	// still in flight).
	L1Hit bool
	// WasInflight is true when the L1 hit landed on an outstanding fill
	// (a "partial hit").
	WasInflight bool
	// WasPrefetch is true when the L1 line was prefetch-installed and
	// this was its first demand touch.
	WasPrefetch bool
	// ServedBy is the level that supplied the data on an L1 miss (LevelL1
	// on hits).
	ServedBy Level
	// Dropped is true when a prefetch was discarded; Reason says why.
	Dropped bool
	// Reason classifies the drop (DropNone when not dropped).
	Reason DropReason
}

// PromoteInstLine sets the EMISSARY P-bit on line wherever it is resident
// (L1I and L2), used when a line qualifies as FEC at retirement.
func (h *Hierarchy) PromoteInstLine(line isa.Addr) {
	h.L1I.Promote(line)
	h.L2.Promote(line)
}
