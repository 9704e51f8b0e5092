package core

import (
	"pdip/internal/backend"
	"pdip/internal/bpu"
	"pdip/internal/cache"
	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/frontend"
	"pdip/internal/invariant"
	"pdip/internal/isa"
	"pdip/internal/mem"
	"pdip/internal/metrics"
	"pdip/internal/pipeline"
	"pdip/internal/prefetch"
	"pdip/internal/rng"
	"pdip/internal/trace"
)

// Core is one simulated core bound to a program. The per-cycle work is
// decomposed into pipeline stages (stage_*.go) ticked in order by pipe;
// Core itself holds the architectural and microarchitectural state the
// stages share, plus the latches between them.
type Core struct {
	cfg  Config
	prog *cfg.Program

	// sock is the socket the core ticks in (a one-tenant socket for a core
	// built by New); Run, ResetStats and Snapshot act on it.
	sock *Socket

	hier *mem.Hierarchy
	// iport and dport are the hierarchy's front ports; every stage access
	// to the memory system is a message through one of them.
	iport mem.Port
	dport mem.Port

	bp  *bpu.BPU
	iag *frontend.IAG
	ftq *frontend.FTQ
	pq  *prefetch.Queue
	rob *backend.ROB
	pf  prefetch.Prefetcher

	// walker is the oracle when the core built it (no caller source); the
	// core releases its loop counters with its other tables.
	walker *trace.Walker

	// pipe is the ordered stage list ticked once per cycle.
	pipe *pipeline.Pipeline

	// decodeQ is the fetch→decode latch between IFU and allocation.
	decodeQ pipeline.Latch[*frontend.Uop]

	ifuEntry *frontend.FTQEntry

	now int64
	seq uint64
	// retired counts retired instructions since construction (Run loop
	// control; stats.Instructions resets with ResetStats).
	retired uint64

	// pendingResteer is the single in-flight redirect, stored inline
	// (hasResteer gates validity) so scheduling one allocates nothing.
	pendingResteer checkpoint.ResteerState
	hasResteer     bool
	iagResumeAt    int64

	// Resteer shadow state (§4.2 trigger association).
	shadowTrigger   isa.Addr
	shadowWasReturn bool
	shadowLeft      int

	lastTakenBlock isa.Addr

	// promoted holds EMISSARY-marked FEC lines; future fills of these
	// lines carry the P-bit.
	promoted map[isa.Addr]struct{}
	// fecEver holds every line that ever met the FEC conditions;
	// FEC-Ideal serves these at L1I latency (the §3 ceiling).
	fecEver map[isa.Addr]struct{}

	// CollectSets diagnostics. pfSet records the cycle of the most recent
	// PQ request per line; nil when CollectSets is off.
	pfSet map[isa.Addr]int64
	// fecReqAge histograms FEC instances by age of the last prefetch
	// request for their line: [never, >10K cycles, 100..10K, <=100].
	fecReqAge [4]uint64
	// fecHolds classifies FEC instances (CollectSets + PDIP only):
	// [no-trigger, table-holds-pair, table-missing-pair].
	fecHolds [3]uint64

	dataRng  *rng.RNG
	promoRng *rng.RNG

	// stats holds the core's own counters, one embedded record per owning
	// stage; reg names them and every component's counters and gauges.
	stats checkpoint.CoreStats
	reg   *metrics.Registry

	// sampleEvery > 0 records a registry snapshot every that many retired
	// instructions; samples accumulate until ResetStats. sampleHook,
	// when set, additionally observes each sample as it is recorded
	// (streaming observers — the fabric worker — sit above the simulated
	// clock and never influence it).
	sampleEvery uint64
	samples     []metrics.Sample
	sampleHook  func(metrics.Sample)

	reqBuf    []prefetch.Request
	retireBuf []*frontend.Uop

	// uopFree and epFree recycle uop and line-episode storage (pool.go):
	// the steady-state cycle loop allocates nothing once the pools warm.
	uopFree []*frontend.Uop
	epFree  []*frontend.LineEpisode

	// Optional prefetcher extensions, resolved once at construction.
	pfEmitter  prefetch.RetireEmitter
	pfCallsRet interface {
		OnCallReturn(isCall bool, pc, returnAddr isa.Addr)
	}
}

// New builds a core over prog with the given configuration, walking the
// synthetic CFG directly. The core is the one tenant of its own socket; a
// core driven by a trace source is a one-tenant NewSocket.
func New(prog *cfg.Program, c Config) (*Core, error) {
	s, err := NewSocket([]SocketTenant{{Prog: prog, Config: c}}, SocketConfig{})
	if err != nil {
		return nil, err
	}
	return s.cores[0], nil
}

// newCore assembles a core over an already-built hierarchy (NewSocket
// builds it over the core's uncore tenant port and checks the source).
func newCore(prog *cfg.Program, src trace.OracleSource, c Config, hier *mem.Hierarchy) *Core {
	bp := bpu.New(c.BPU)
	var walker *trace.Walker
	oracle := src
	if oracle == nil {
		walker = trace.New(prog, c.Seed)
		oracle = walker
	}
	pf := c.Prefetcher
	if pf == nil {
		pf = prefetch.None{}
	}
	pq := prefetch.NewQueue(c.PQDepth)
	pq.ZeroCost = c.ZeroCostPrefetch
	if c.PQReserveMSHRs != 0 {
		pq.ReserveMSHRs = c.PQReserveMSHRs
	}
	if c.PQReserveMSHRs < 0 {
		pq.ReserveMSHRs = 0
	}
	co := &Core{
		cfg:      c,
		prog:     prog,
		hier:     hier,
		iport:    hier.InstPort(),
		dport:    hier.DataPort(),
		bp:       bp,
		iag:      frontend.NewIAG(bp, oracle, c.MaxEntryInsts),
		walker:   walker,
		ftq:      frontend.NewFTQ(c.FTQDepth),
		pq:       pq,
		rob:      backend.NewROB(c.ROBSize),
		pf:       pf,
		promoted: make(map[isa.Addr]struct{}),
		fecEver:  make(map[isa.Addr]struct{}),
		dataRng:  rng.New(c.Seed ^ 0xda7a),
		promoRng: rng.New(c.Seed ^ 0xe351),
		reg:      metrics.NewRegistry(),
	}
	co.pipe = pipeline.New(
		&retireStage{co: co},
		&resteerStage{co: co},
		&decodeStage{co: co},
		&fetchStage{co: co},
		&predictStage{co: co},
		&prefetchDrainStage{co: co},
	)
	if c.DecodeQDepth > 0 {
		// Occupancy is bounded by the decode-depth check in fetchOne, so
		// pre-sizing the latch once removes growth from the hot path.
		co.decodeQ.Grow(c.DecodeQDepth)
	}
	co.registerMetrics()
	if c.CollectSets {
		co.pfSet = make(map[isa.Addr]int64)
	}
	if e, ok := pf.(prefetch.RetireEmitter); ok {
		co.pfEmitter = e
	}
	if o, ok := pf.(interface {
		OnCallReturn(isCall bool, pc, returnAddr isa.Addr)
	}); ok {
		co.pfCallsRet = o
	}
	return co
}

// Release releases the core's socket (see Socket.Release).
func (co *Core) Release() { co.sock.Release() }

// release hands the core's private tables to the recycler: the L1
// columns, the predictor tables, the loop counters of the walker it
// built, and, when withPrefetcher, the prefetcher's tables.
func (co *Core) release(withPrefetcher bool) {
	co.hier.L1I.Release()
	co.hier.L1D.Release()
	co.bp.Release()
	if co.walker != nil {
		co.walker.Release()
	}
	if r, ok := co.pf.(interface{ Release() }); ok && withPrefetcher {
		r.Release()
	}
}

// MustNew is New for known-good configurations.
func MustNew(prog *cfg.Program, c Config) *Core {
	co, err := New(prog, c)
	if err != nil {
		panic(err)
	}
	return co
}

// Cycles returns the current cycle.
func (co *Core) Cycles() int64 { return co.now }

// Retired returns total retired instructions since construction.
func (co *Core) Retired() uint64 { return co.retired }

// Pipeline returns the ordered stage list (diagnostics and tests).
func (co *Core) Pipeline() *pipeline.Pipeline { return co.pipe }

// Run advances the core's socket until every tenant has retired n more
// instructions — for a core built by New, until this core has (see
// Socket.Run). It returns an error if the cycle budget explodes
// (misconfiguration guard).
func (co *Core) Run(n uint64) error { return co.sock.Run(n) }

// tickCycle advances the core exactly one cycle: the per-cycle
// bookkeeping plus one tick of every pipeline stage. The socket
// interleaves its cores cycle by cycle and makes the idle-skip decision
// globally (the skip is only sound when every core is idle).
//
//lint:hotpath
func (co *Core) tickCycle() {
	co.now++
	if invariant.Enabled && (co.ftq.Len() < 0 || co.ftq.Len() > co.ftq.Depth()) {
		invariant.Failf("FTQ occupancy %d outside [0, %d] at cycle %d", co.ftq.Len(), co.ftq.Depth(), co.now)
	}
	co.countCycles(1)
	co.pipe.Tick(co.now)
}

// countCycles counts n cycles at the current FTQ occupancy: the cycle
// counter and the occupancy histogram's bucket and sum.
func (co *Core) countCycles(n uint64) {
	ct := &co.stats.PipeCounters
	ct.Cycles += n
	occ := uint64(co.ftq.Len())
	b := 0
	for b < len(checkpoint.FTQOccBounds) && occ > checkpoint.FTQOccBounds[b] {
		b++
	}
	ct.FTQOcc[b] += n
	ct.FTQOccSum += occ * n
}

// nextEventAt lower-bounds the next cycle at which any of the core's
// stages can act (pipeline.Never when none can). Socket fast-forward takes
// the minimum across cores.
func (co *Core) nextEventAt() int64 { return co.pipe.NextEventAt(co.now) }

// skipIdle applies the bulk bookkeeping for n provably idle cycles — the
// cycle counter, the FTQ-occupancy sample (constant across the window,
// since no stage acts), and per-stage stall attribution
// (pipeline.StallAccounter) — and jumps the clock. The caller (socket
// fast-forward) guarantees no stage can act in the window, so metrics are
// bit-identical to stepping every cycle; TestFastForwardBitIdentical and
// the golden-grid replay pin that equivalence.
func (co *Core) skipIdle(n int64) {
	co.countCycles(uint64(n))
	co.pipe.AccountStall(co.now, n)
	co.now += n
}

// ResetStats zeroes all measurement counters of the core's socket (see
// Socket.ResetStats) while keeping architectural and microarchitectural
// state (caches, predictors, tables) warm. Call after the warmup window,
// mirroring the paper's methodology (§6.1).
func (co *Core) ResetStats() { co.sock.ResetStats() }

// resetStats is the core-private half of Socket.ResetStats; the shared
// L2/L3 stats reset with the uncore.
func (co *Core) resetStats() {
	co.stats = checkpoint.CoreStats{}
	co.samples = co.samples[:0]
	co.hier.L1I.Stats = cache.Stats{}
	co.hier.L1D.Stats = cache.Stats{}
	co.pq.Stats = prefetch.Stats{}
	co.bp.Stats = bpu.Stats{}
	co.rob.Stats = backend.Stats{}
	// Clear the CollectSets diagnostics too, so they describe the measured
	// window only. This makes CollectSets a pure measure-phase knob: a core
	// forked from a warm snapshot (whose warmup ran without CollectSets)
	// starts the measured window with exactly the same empty state as a
	// from-scratch run reset here.
	if co.pfSet != nil {
		clear(co.pfSet)
	}
	co.fecReqAge = [4]uint64{}
	co.fecHolds = [3]uint64{}
	if r, ok := co.pf.(interface{ ResetStats() }); ok {
		r.ResetStats()
	}
}
