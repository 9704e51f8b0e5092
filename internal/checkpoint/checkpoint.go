// Package checkpoint defines the versioned, deterministic serialization
// format for the complete simulator state: every microarchitectural
// structure a warmed core carries — cache tags, LRU state, EMISSARY
// P-bits, MSHR deadlines, TAGE/ITTAGE folded histories, BTB, RAS, FTQ,
// PQ, prefetcher tables, trace-walker positions, rng streams, and every
// component's counters.
//
// The package is a leaf: it imports only the ISA vocabulary and the
// standard library, so every component package can depend on it without
// cycles. The components keep their tables, stats and pipeline records in
// these declarations directly (cache columns, TAGE/ITTAGE and BTB
// entries, the PDIP, EIP and RDIP rows, every Stats struct, the episode,
// uop, FTQ-entry, prefetch-request and pending-resteer records), so each
// shape is declared once, a capture is a clone and a restore is checks
// plus copy. State structs deliberately contain no Go maps (map-backed
// component state is captured as key-sorted slices): the wire encoding
// must be byte-identical for identical simulator state, because the
// on-disk cache is content addressed and the bit-identity tests diff
// restored runs against from-scratch runs.
//
// Every snapshot is socket-shaped: a single-core run is a one-tenant
// socket, so State holds the shared uncore once and one TenantState per
// core.
//
// Two uses share the format:
//
//   - In-memory fork: a *State is a plain value; core.NewFromSnapshot
//     builds a fresh core and copies the state in. One snapshot can be
//     forked concurrently — Restore implementations only read the state
//     and never alias its slices.
//   - On-disk cache: Encode/DecodeBytes frame the state in the versioned
//     binary columnar wire format (checkpoint_binary.go), whose layout the
//     declarations below define: a plan built by reflection from these
//     structs and their ckpt tags drives both directions. Dir manages a
//     content-addressed directory keyed by a config+workload hash (see
//     Key). A file from another format version fails to decode and the
//     caller re-warms.
package checkpoint

import (
	"pdip/internal/isa"
)

// FormatVersion identifies the state layout and wire format. Bump it
// whenever a captured struct changes shape or meaning — stale on-disk
// checkpoints then miss (they are keyed by version) instead of restoring
// garbage.
//
// Version history: 1 = original format (IAGState held WalkerState
// directly); 2 = instruction sources became a tagged union (SourceState),
// admitting ChampSim trace replay alongside the synthetic CFG walker;
// 3 = multi-tenant sockets: CacheState grew per-owner attribution columns
// (Owner/InflightOwner/Owners) and a separate socket snapshot kind
// captured the shared uncore once; 4 = the wire format switched from
// gzip+JSON to the binary columnar codec; 5 = one snapshot kind: every
// State is a socket (the uncore section, then one section group per
// tenant), HierarchyState holds only the core-private L1s, and the wire
// header lost its kind byte; 6 = one reflection-built plan per type
// replaced the hand codec: slices of fixed-width-scalar structs are
// written field-major (one column per field), and PDIPState became two
// flat arrays (Entries, Targets) with no per-set or per-entry counts;
// 7 = CoreState lost FECSet and FECTrace, and BTBState its Lookups and
// Hits: diagnostics go through the metrics registry only; 8 =
// WalkerState.LoopCnt holds only the nonzero counters as (block, count)
// pairs, and NextLineState lost Emitted; 9 = counters are component
// state: the registry sections (TenantState.Metrics, UncoreState.Metrics)
// are gone, the core's counters and FTQ-occupancy buckets are
// CoreState.Stats and the uncore's port counters UncoreState.Ports, and no
// field is a float64.
const FormatVersion = 9

// State is the complete simulator state at one cycle boundary: the
// socket's shared uncore captured exactly once, then every core as a
// TenantState child. A single-core run is a one-tenant socket.
type State struct {
	// Version is FormatVersion at capture time.
	Version int
	// Now is the socket clock (every core's clock is in lockstep with it).
	Now int64
	// SharedPrefetcher records the socket's table-sharing mode so a
	// restore into a differently wired socket fails loudly.
	SharedPrefetcher bool
	Uncore           UncoreState `ckpt:"sec=20"`
	Tenants          []TenantState
}

// UncoreState captures the shared half of the socket's memory system.
type UncoreState struct {
	L2, L3 CacheState
	// Ports holds each requester's port counters, indexed by requester
	// id (the per-owner interference counters live in the caches).
	Ports []TenantPortCounters
}

// TenantState is one core's state inside a socket snapshot.
type TenantState struct {
	Core CoreState      `ckpt:"sec=1"`
	Mem  HierarchyState `ckpt:"sec=3"`
	BPU  BPUState       `ckpt:"sec=4"`
	IAG  IAGState       `ckpt:"sec=5"`

	// Episodes is the deduplicated table of live fetch episodes; FTQ/IFU
	// entries and uops reference it by index.
	Episodes []EpisodeState `ckpt:"sec=6"`
	// FTQ holds the queued fetch-target entries, oldest first. Queued
	// entries have no episodes (episodes exist only once an entry leaves
	// the FTQ for the IFU).
	FTQ []FTQEntryState `ckpt:"sec=7"`
	// IFU is the entry mid-fetch in the instruction fetch unit, if any.
	IFU *FTQEntryState `ckpt:"sec=8"`
	// DecodeQ is the fetch→decode latch contents, oldest first.
	DecodeQ []UopState `ckpt:"sec=9"`
	ROB     ROBState   `ckpt:"sec=10"`
	PQ      QueueState `ckpt:"sec=11"`

	Prefetcher PrefetcherState `ckpt:"sec=12"`
}

// CoreState holds the core's own scalar and set state (cycle clock,
// resteer machinery, EMISSARY promotion set, FEC bookkeeping, rng
// streams) and its counters.
type CoreState struct {
	Now     int64
	Seq     uint64
	Retired uint64

	HasResteer bool
	Resteer    ResteerState

	IAGResumeAt     int64
	ShadowTrigger   isa.Addr
	ShadowWasReturn bool
	ShadowLeft      int
	LastTakenBlock  isa.Addr

	// Promoted and FECEver are architectural map state, captured as
	// key-sorted slices.
	Promoted []isa.Addr
	FECEver  []isa.Addr

	// CollectSets diagnostics (PFSet is nil when it is off): the request
	// set and the counters behind core.fec.req_age.* and core.fec.holds.*.
	PFSet     []PFSetEntry
	FECReqAge [4]uint64
	FECHolds  [3]uint64

	SampleEvery uint64

	DataRng  uint64
	PromoRng uint64

	Stats CoreStats
}

// PFSetEntry is one (line → last-request-cycle) pair of the prefetch
// request set, sorted by line.
type PFSetEntry struct {
	Line  isa.Addr `ckpt:"delta"`
	Cycle int64
}

// CoreStats is the core's own counters (stats.Core), one embedded record
// per owner: each is written only from the files its //lint:owner
// directive names, or by default from internal/core's stage_<group>.go
// (simlint's counterownership). Reads go through the promoted fields
// (Result().Core.Instructions).
type CoreStats struct {
	PipeCounters
	RetireCounters
	ResteerCounters
	DecodeCounters
	PrefetchCounters
}

// FTQOccBounds are the inclusive upper bounds of the FTQ-occupancy
// histogram's buckets (PipeCounters.FTQOcc).
var FTQOccBounds = [...]uint64{0, 2, 4, 8, 12, 16, 20, 24}

// PipeCounters is per-cycle bookkeeping owned by the core's cycle loop.
//
//lint:owner core.go
type PipeCounters struct {
	// Cycles counts simulated cycles; with Instructions it defines IPC.
	Cycles uint64
	// FTQOcc samples FTQ occupancy once per cycle (decoupling depth): one
	// bucket per FTQOccBounds entry, then the overflow bucket. FTQOccSum
	// totals the samples; their count is Cycles.
	FTQOcc    [len(FTQOccBounds) + 1]uint64
	FTQOccSum uint64
}

// RetireCounters is owned by the retire stage: instruction retirement and
// the line-episode (FEC) accounting evaluated there (§2.1/§3).
type RetireCounters struct {
	// Instructions counts retired (correct-path) instructions only.
	Instructions     uint64
	LinesRetired     uint64 // retired line episodes
	FECLines         uint64 // episodes meeting the 3 FEC conditions
	FECRepeatLines   uint64 // FEC episodes whose line was FEC before
	HighCostFECLines uint64 // FEC with >10 starvation cycles
	HighCostBackend  uint64 // high-cost FEC that also drained the backend
	FECStallCycles   uint64 // starvation cycles caused by FEC episodes
	FECCoveredLate   uint64 // FEC episodes that had consumed a prefetch (late/partial)
	ShadowCovered    uint64 // resteer-shadow episodes saved by a prefetch (no stall)
	NonFECStall      uint64 // starvation cycles on non-FEC episodes
}

// ResteerCounters counts resteers by cause; the resteer stage owns it.
type ResteerCounters struct {
	ResteerMispredict uint64 // conditional/indirect direction or target
	ResteerBTBMiss    uint64 // taken branch invisible to the IAG
	ResteerReturn     uint64 // return target mispredicts
}

// DecodeCounters is owned by the decode/allocate stage: issue-slot
// top-down accounting and starvation attribution happen there.
type DecodeCounters struct {
	// WrongPathInstructions counts squashed fetches entering the pipeline.
	WrongPathInstructions uint64
	// DecodeStarvedCycles counts cycles decode delivered nothing while
	// the back-end could accept.
	DecodeStarvedCycles uint64
	// StarvedOnMiss counts the subset attributable to an L1I miss.
	StarvedOnMiss uint64
	// StarveNoEntry counts starved cycles with an empty FTQ and idle IFU
	// (post-resteer refill, IAG restart).
	StarveNoEntry uint64
	// StarvePipe counts starved cycles where fetched uops were still in
	// the decode pipe (refill latency).
	StarvePipe uint64
	// StarveOther counts the remainder (e.g. waiting on a hit's
	// delivery, decode-queue backpressure interactions).
	StarveOther uint64

	TopDown TopDown
}

// PrefetchCounters is shared by the two stages that enqueue prefetch
// requests (predict and prefetch-drain): both apply the FTQ duplicate
// suppression and account drops to the same counter.
//
//lint:owner stage_predict.go stage_prefetch.go
type PrefetchCounters struct {
	// PFDroppedFTQ counts prefetch requests suppressed because the line
	// was already covered by a queued FTQ entry (§6.2 duplicate check).
	PFDroppedFTQ uint64
}

// IPC returns instructions per cycle.
func (c *CoreStats) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// PerKilo returns events per kilo-instruction.
func (c *CoreStats) PerKilo(events uint64) float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(events) * 1000 / float64(c.Instructions)
}

// TopDown is the issue-slot breakdown of the top-down method (Yasin),
// counted at the decode/allocation boundary each cycle (stats.TopDown).
type TopDown struct {
	// Retiring slots delivered correct-path instructions that retired.
	Retiring uint64
	// BadSpeculation slots delivered wrong-path instructions (squashed).
	BadSpeculation uint64
	// FrontendBound slots were empty because the front-end supplied
	// nothing.
	FrontendBound uint64
	// BackendBound slots were empty because the back-end could not accept
	// (ROB full).
	BackendBound uint64
}

// Total returns the slot total.
func (t TopDown) Total() uint64 {
	return t.Retiring + t.BadSpeculation + t.FrontendBound + t.BackendBound
}

// Shares returns the four fractions in order retiring, frontend, badspec,
// backend. A zero total yields zeros.
func (t TopDown) Shares() (retiring, frontend, badspec, backend float64) {
	total := float64(t.Total())
	if total == 0 {
		return
	}
	return float64(t.Retiring) / total, float64(t.FrontendBound) / total,
		float64(t.BadSpeculation) / total, float64(t.BackendBound) / total
}

// TenantPortCounters attributes one requester's traffic through its
// uncore tenant port (published as uncore.tenant<i>.*).
//
//lint:owner uncore.go
type TenantPortCounters struct {
	Requests uint64
	L2Hits   uint64
	L3Hits   uint64
	MemFills uint64
	L2Misses uint64
	L3Misses uint64
	// SpecDropped counts requests the shared levels dropped.
	SpecDropped uint64
	// FillCycles totals the cycles from request to fill.
	FillCycles uint64
}

// HierarchyState captures a core's private cache levels. The L2/L3
// behind them belong to the uncore (UncoreState); port wiring is
// stateless and rebuilt by construction.
type HierarchyState struct {
	L1I, L1D CacheState
}

// CacheState is one set-associative cache level: every line's metadata
// plus the MSHR file and the level's stats.
//
// Line metadata is stored columnar — one parallel array per field,
// indexed set-major (set*Ways + way) — rather than as an array of
// per-line structs. The cache sections dominate the encoded state (L2
// and L3 carry tens of thousands of lines), and the columnar layout
// both shrinks them (delta-coded tags and deadlines, the three bool
// columns packed into bitmasks) and decodes as primitive-array scans
// instead of per-line record parses.
type CacheState struct {
	// Sets and Ways pin the geometry so a restore into a differently
	// configured cache fails loudly.
	Sets, Ways int
	// Tag, LRU, and ReadyAt are per-line columns (Sets×Ways entries).
	Tag     []uint64
	LRU     []uint32
	ReadyAt []int64
	// Valid, Priority (the EMISSARY P-bit), and Prefetched are per-line
	// bool columns packed as bitmasks.
	Valid, Priority, Prefetched Bitmask
	Tick                        uint32
	Inflight                    []int64
	InflightMin                 int64
	Stats                       CacheStats
	// Owner attribution columns, present only for shared (owner-tracked)
	// levels: Owner is the per-line owner column, InflightOwner parallels
	// Inflight, and Owners holds the per-owner interference counters. The
	// per-owner in-flight occupancy is derived from InflightOwner at
	// restore.
	Owner         []uint8
	InflightOwner []uint8
	Owners        []OwnerStats
}

// OwnerStats aggregates per-owner interference counters at one shared
// cache level (cache.OwnerStats). The slice lives on cache.Cache.Owners,
// indexed by owner id; internal/mem's port chain and internal/uncore
// increment the fields directly.
type OwnerStats struct {
	// Fills counts line installations attributed to this owner.
	Fills uint64
	// MSHRSteals counts fill allocations beyond the owner's reserved MSHR
	// share, i.e. slots taken from the shared pool that other tenants
	// compete for.
	MSHRSteals uint64
	// DelayedFills counts demand-origin fills that had to wait for MSHR
	// quota; DelayCycles accumulates the total wait.
	DelayedFills uint64
	DelayCycles  uint64
	// SpecDropped counts speculative (prefetch/prime-origin) fills dropped
	// at this level because the owner's quota was exhausted.
	SpecDropped uint64
	// CrossEvictionsSuffered counts this owner's resident lines evicted by
	// another owner's fill; CrossEvictionsCaused is the mirror image.
	CrossEvictionsSuffered uint64
	CrossEvictionsCaused   uint64
}

// Bitmask is a packed bool column: entry i lives at bit i%8 of byte i/8,
// so n bools cost n/8 bytes on the wire.
type Bitmask []byte

// BitmaskBytes is the length of a mask with capacity for n entries.
func BitmaskBytes(n int) int { return (n + 7) / 8 }

// The accessors index with unsigned arithmetic: it compiles to a plain
// shift and mask, which matters on the cache lookup path that reads the
// live valid mask.

// Set marks entry i true.
func (b Bitmask) Set(i int) { b[uint(i)/8] |= 1 << (uint(i) % 8) }

// SetTo sets entry i to v.
func (b Bitmask) SetTo(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b[uint(i)/8] &^= 1 << (uint(i) % 8)
	}
}

// Get reports entry i.
func (b Bitmask) Get(i int) bool { return b[uint(i)/8]>>(uint(i)%8)&1 != 0 }

// CacheStats aggregates one cache level's counters (cache.Stats).
type CacheStats struct {
	// Demand accesses and misses (prefetch probes excluded).
	Accesses uint64
	Misses   uint64
	// InstMisses/DataMisses split Misses by request class (used for the
	// paper's L2I vs L2D distinction).
	InstMisses uint64
	DataMisses uint64
	// LateHits counts demand accesses that found the line in flight.
	LateHits uint64
	// Fills counts new line installations from any source (demand, FDIP
	// prime, prefetch). At the L1I this is the paper's miss-traffic
	// measure: with FDIP most fills are prefetch-initiated rather than
	// demand misses.
	Fills uint64
	// PrefetchFills counts fills initiated by a prefetcher.
	PrefetchFills uint64
	// UsefulPrefetches counts prefetched lines demand-hit before eviction.
	UsefulPrefetches uint64
	// LatePrefetches counts demand accesses that found a prefetched line
	// still in flight (issued, but not early enough).
	LatePrefetches uint64
	// UselessPrefetches counts prefetched lines evicted without a hit.
	UselessPrefetches uint64
	// Evictions counts replaced valid lines.
	Evictions uint64
}

// BPUState captures the branch prediction unit.
type BPUState struct {
	TAGE   TAGEState
	ITTAGE ITTAGEState
	BTB    BTBState
	RAS    RASState
	Stats  BPUStats
}

// BPUStats counts branch prediction events on the correct path
// (bpu.Stats).
type BPUStats struct {
	CondBranches   uint64
	CondMispredict uint64
	BTBLookups     uint64
	BTBMissTaken   uint64 // taken branches invisible to the IAG
	IndBranches    uint64
	IndMispredict  uint64
	Returns        uint64
	RetMispredict  uint64
}

// TAGEState captures the conditional direction predictor: base and tagged
// tables, the global history ring, the folded-history accumulators (only
// the compressed value — lengths and fold points are geometry, rebuilt by
// construction), and the allocation state.
type TAGEState struct {
	Base     []int8
	Tables   [][]TAGEEntry
	HistBits []bool
	HistHead int
	// IdxFold/TagFold/Tg2Fold are the per-table folded-history compressed
	// values.
	IdxFold, TagFold, Tg2Fold []uint32
	UseAltOnNa                int8
	AllocSeed                 uint64
}

// TAGEEntry is one tagged-table entry.
type TAGEEntry struct {
	Tag    uint16
	Ctr    int8  // 3-bit signed counter, -4..3; >= 0 means taken
	Useful uint8 // 2-bit useful counter
}

// ITTAGEState captures the indirect target predictor.
type ITTAGEState struct {
	Base             []isa.Addr
	Tables           [][]ITTAGEEntry
	HistBits         []bool
	HistHead         int
	IdxFold, TagFold []uint32
	AllocSeed        uint64
}

// ITTAGEEntry is one tagged-table entry.
type ITTAGEEntry struct {
	Tag    uint16
	Target isa.Addr
	Ctr    int8 // confidence, 0..3
	Useful uint8
}

// BTBState captures the branch target buffer as a dense set-major entry
// array plus its LRU clock.
type BTBState struct {
	Sets, Ways int
	Entries    []BTBEntryState
	Tick       uint32
}

// BTBEntryState is one BTB entry: a taken branch's full tag (upper PC
// bits), target, and branch kind, so the IAG knows which predictor
// supplies the target.
type BTBEntryState struct {
	Valid  bool
	Tag    uint64   `ckpt:"delta"`
	Target isa.Addr `ckpt:"delta"`
	Kind   isa.BranchKind
	LRU    uint32
}

// RASState captures the return address stack ring.
type RASState struct {
	Entries []isa.Addr
	Top     int
	Depth   int
}

// IAGState captures the instruction address generator: the oracle source,
// the forked wrong-path source (when fetching beyond an unresolved
// mispredict), and the mispredict gate.
type IAGState struct {
	Oracle            SourceState
	Wrong             *SourceState
	PendingMispredict bool
}

// Source kinds for SourceState. Exactly the sub-state matching the kind
// is populated; restore fails loudly on a kind the restoring source does
// not speak.
const (
	// SourceCFG is the synthetic CFG walker (trace.Walker). Wrong-path
	// walkers forked from any oracle kind that delegates its wrong paths
	// to a shadow walker use this kind too.
	SourceCFG = "cfg"
	// SourceChampSim is a ChampSim trace-replay oracle
	// (trace/champsim.Source), standalone or differential.
	SourceChampSim = "champsim"
	// SourceChampSimWrong is the derived wrong path of a standalone
	// ChampSim replay (trace/champsim.Wrong).
	SourceChampSimWrong = "champsim-wrong"
)

// SourceState is the tagged union over instruction-source kinds: the
// synthetic CFG walker and the ChampSim trace-replay sources serialize
// into the same slot of IAGState, keyed by Kind. The backing input (the
// generated program, the trace file) is reconstruction input, not state.
type SourceState struct {
	Kind string
	// Walker is the CFG-walker state (SourceCFG), and doubles as the
	// shadow-walker state of a differential ChampSim source.
	Walker *WalkerState
	// ChampSim is the trace-replay state (SourceChampSim and
	// SourceChampSimWrong).
	ChampSim *ChampSimState
}

// WalkerState captures a trace walker's position and stream state. The
// current block is stored by ID (-1 when the walker is "lost" outside any
// block) and each call in progress by its return address; the program
// itself is reconstruction input, not state.
type WalkerState struct {
	Rng   uint64
	Stack []isa.Addr
	// LoopCnt lists the nonzero loop counters in block order: only loops
	// the walk is inside count. A wrong-path walker (WrongPath) has none.
	LoopCnt        []LoopCount
	CurBlock       int
	InstIdx        int
	LostPC         isa.Addr
	WrongPath      bool
	DispatchCenter int
	Count          uint64
}

// LoopCount is one nonzero loop counter of a walker: the block of a loop
// back-edge and how often it has been taken in the current trip.
type LoopCount struct {
	Block uint32
	Count uint16
}

// ChampSimState captures a ChampSim trace-replay source. For the oracle,
// Count and Primed pin the reader position (records consumed = Count +
// one look-ahead record when Primed), and Decode/RAS hold the shadow
// structures the derived wrong path walks; the trace file itself is
// reconstruction input. For a wrong-path source (SourceChampSimWrong),
// PC and RAS hold the speculative cursor — the shadow tables it reads
// belong to (and are restored with) the parent oracle.
type ChampSimState struct {
	Count  uint64
	Primed bool
	// Decode is the sparse contents of the shadow decode cache, sorted
	// by slot index.
	Decode []ChampSimDecodeEntry
	RAS    []isa.Addr
	PC     isa.Addr
}

// ChampSimDecodeEntry is one valid shadow decode-cache slot.
type ChampSimDecodeEntry struct {
	Slot   int `ckpt:"delta"`
	PC     isa.Addr
	Size   uint8
	Kind   uint8
	Taken  bool
	Target isa.Addr
}

// Level identifies which memory level served an access (mem.Level).
type Level uint8

const (
	// LevelL1 means the first-level cache (L1I or L1D) hit.
	LevelL1 Level = iota
	// LevelL2 means the access missed L1 and hit L2.
	LevelL2
	// LevelL3 means the access missed L1 and L2 and hit L3.
	LevelL3
	// LevelMem means the access went to DRAM.
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	default:
		return "Mem"
	}
}

// ResteerCause classifies front-end resteers for stats and PDIP triggers
// (frontend.ResteerCause).
type ResteerCause uint8

const (
	// ResteerNone means no resteer.
	ResteerNone ResteerCause = iota
	// ResteerMispredict is a conditional direction or indirect target
	// mispredict.
	ResteerMispredict
	// ResteerBTBMiss is a taken branch that was invisible to the IAG.
	ResteerBTBMiss
	// ResteerReturn is a return-target mispredict.
	ResteerReturn
)

func (c ResteerCause) String() string {
	switch c {
	case ResteerMispredict:
		return "mispredict"
	case ResteerBTBMiss:
		return "btb-miss"
	case ResteerReturn:
		return "return"
	default:
		return "none"
	}
}

// ResteerState is the core's single pending front-end redirect: the
// cycle it takes effect, where it sends the IAG, the trigger block of
// the resteering branch, and why.
type ResteerState struct {
	At      int64
	Target  isa.Addr
	Trigger isa.Addr
	Cause   ResteerCause
}

// The pipeline records below are the live records themselves:
// frontend.LineEpisode embeds EpisodeState, frontend.Uop is UopState plus
// its episode pointer, frontend.FTQEntry is FTQEntryState plus its
// episode pointers, and prefetch.Request is RequestState. A capture copies
// the record and maps each pointer to an index (EpisodeID, EpisodeIDs)
// into TenantState.Episodes; a restore copies it back and resolves the
// indexes. The index fields mean nothing on a live record.

// EpisodeState is one demand-fetch episode of an instruction cache line
// (frontend.LineEpisode): the unit the FEC conditions are evaluated over.
// Episodes are created when the IFU issues the demand access and processed
// once, when the first instruction they delivered retires. They are
// shared (an FTQ entry's uops all reference their line's episode), so a
// checkpoint holds each once in TenantState.Episodes, referenced by index.
type EpisodeState struct {
	// Line is the cache line address.
	Line isa.Addr
	// WrongPath marks episodes created for squashed fetches.
	WrongPath bool
	// Missed reports an L1I demand miss; ServedBy is the filling level.
	Missed   bool
	ServedBy Level
	// FetchCycle is the demand issue cycle; DoneCycle its completion.
	FetchCycle, DoneCycle int64
	// Starve counts decode-starvation cycles attributed to this episode.
	Starve int
	// BackendEmpty records an empty back-end during the starvation.
	BackendEmpty bool
	// WasPrefetch marks a demand access that consumed a prefetched line.
	WasPrefetch bool
	// Processed marks retire-time FEC handling as done.
	Processed bool
	// ResteerTrigger is the trigger block (line) of the most recent
	// resteer when this episode was fetched in its shadow, else 0.
	ResteerTrigger isa.Addr
	// ResteerWasReturn marks return-caused resteer shadows.
	ResteerWasReturn bool
	// Refs counts live uop references to this episode so the core can
	// recycle episode storage once the last referencing uop retires or is
	// squashed. It is allocator bookkeeping, not simulated state.
	Refs int32
}

// Prediction is the BPU's prediction for a block's terminator
// (bpu.Prediction).
type Prediction struct {
	// Taken is the predicted direction. When the BTB misses, the IAG does
	// not know a branch exists, so the prediction is always fall-through
	// (Taken == false) regardless of what TAGE would have said.
	Taken bool
	// Target is the predicted target when Taken.
	Target isa.Addr
	// BTBHit reports whether the branch was visible to the IAG at all.
	BTBHit bool
}

// FTQEntryState is one predicted basic block in the FTQ or IFU
// (frontend.FTQEntry).
type FTQEntryState struct {
	// Insts are the entry's instructions with actual outcomes.
	Insts []isa.Inst
	// Start is the address of the first instruction.
	Start isa.Addr
	// Lines are the distinct cache lines the entry spans (in order).
	Lines []isa.Addr
	// WrongPath marks entries fetched beyond an unresolved mispredict.
	WrongPath bool
	// HasBranch reports whether the entry ends in a branch.
	HasBranch bool
	// Pred is the BPU's prediction for the terminator.
	Pred Prediction
	// Mispredict, Cause, ResolveAtDecode, CorrectTarget describe the
	// pending resteer when the prediction was wrong (correct path only).
	Mispredict      bool
	Cause           ResteerCause
	ResolveAtDecode bool
	CorrectTarget   isa.Addr

	// ShadowTrigger carries the trigger block of the most recent resteer
	// for correct-path entries inserted before the FTQ refilled (the
	// "wake of a resteer" of §4.2); 0 outside any resteer shadow.
	ShadowTrigger isa.Addr
	// ShadowWasReturn marks return-caused resteer shadows.
	ShadowWasReturn bool

	// EpisodeIDs index TenantState.Episodes, one per line the IFU has
	// issued (the IFU entry only: queued FTQ entries have none).
	EpisodeIDs []int
	// ReadyAt is when all lines are fetched (set by the IFU).
	ReadyAt int64
}

// UopState is one instruction flowing through decode, the ROB and retire
// (frontend.Uop).
type UopState struct {
	// Inst is the architectural instruction with its actual outcome.
	Inst isa.Inst
	// Seq is a global fetch-order sequence number.
	Seq uint64
	// WrongPath marks squashed-on-resteer instructions.
	WrongPath bool
	// EpisodeID indexes TenantState.Episodes: the fetch episode of the
	// line the instruction came from, -1 for none.
	EpisodeID int
	// Mispredict marks the (correct-path) branch whose prediction was
	// wrong; resolution triggers the resteer.
	Mispredict bool
	// ResolveAtDecode resolves the resteer at decode (early correction
	// for direct branches missing in the BTB) instead of at execute.
	ResolveAtDecode bool
	// Cause classifies the resteer for stats and trigger selection.
	Cause ResteerCause
	// CorrectTarget is where the front-end must resteer to.
	CorrectTarget isa.Addr
	// TriggerBlock is the block (line) address of the FTQ entry that
	// contained this branch — the PDIP trigger key.
	TriggerBlock isa.Addr
	// IsMemOp marks instructions that access the data hierarchy.
	IsMemOp bool
	// DataLine is the data cache line touched when IsMemOp.
	DataLine isa.Addr
	// DoneAt is the execution-complete cycle, set when entering the ROB.
	DoneAt int64
	// AvailableAt is when the uop leaves the fetch/decode pipe.
	AvailableAt int64
}

// ROBState captures the reorder buffer contents, oldest first.
type ROBState struct {
	Uops  []UopState
	Stats ROBStats
}

// ROBStats aggregates ROB-level accounting: allocations, in-order
// retirements, and wrong-path squashes (backend.Stats).
type ROBStats struct {
	Pushed   uint64
	Retired  uint64
	Squashed uint64
}

// QueueState captures the prefetch queue contents, oldest first.
type QueueState struct {
	Entries []RequestState
	Stats   QueueStats
}

// TriggerKind classifies why a prefetch was issued (Figure 16;
// prefetch.TriggerKind).
type TriggerKind uint8

const (
	// TriggerNone is used by prefetchers without PDIP-style triggers.
	TriggerNone TriggerKind = iota
	// TriggerMispredict means the trigger was a front-end resteering
	// instruction (branch mispredict or BTB miss).
	TriggerMispredict
	// TriggerLastTaken means the trigger was the last retired taken
	// branch (long-latency misses with no resteer).
	TriggerLastTaken
)

func (k TriggerKind) String() string {
	switch k {
	case TriggerMispredict:
		return "mispredict"
	case TriggerLastTaken:
		return "last-taken"
	default:
		return "none"
	}
}

// RequestState is one prefetch target emitted by a prefetcher, queued in
// the PQ or pending in a prefetcher (prefetch.Request).
type RequestState struct {
	// Line is the cache line to prefetch.
	Line isa.Addr `ckpt:"delta"`
	// Trigger records the trigger class for Figure 16 accounting.
	Trigger TriggerKind
}

// QueueStats aggregates the prefetch queue's issue accounting
// (prefetch.Stats).
type QueueStats struct {
	// Enqueued counts requests accepted into the PQ.
	Enqueued uint64
	// DroppedQueueFull counts requests rejected because the PQ was full.
	DroppedQueueFull uint64
	// Issued counts prefetches sent to the hierarchy.
	Issued uint64
	// DroppedPresent counts prefetches discarded on L1I probe hit.
	DroppedPresent uint64
	// DroppedMSHR counts prefetches discarded for MSHR headroom.
	DroppedMSHR uint64
	// ByTrigger splits issued prefetches by trigger class (Figure 16),
	// indexed by TriggerKind.
	ByTrigger [3]uint64
}

// PrefetcherState captures the prefetcher under test. Kind names the
// concrete implementation; exactly the matching sub-state is non-nil.
type PrefetcherState struct {
	Kind     string
	PDIP     *PDIPState
	EIP      *EIPState
	RDIP     *RDIPState
	FNLMMA   *FNLMMAState
	NextLine *NextLineState
}

// PDIPState captures the PDIP trigger→target table as two flat arrays:
// Entries in set-major order (set*Ways + way) and Targets in entry-major
// order (entry*TargetsPerEntry + slot). Restore checks both lengths
// against the table's geometry.
type PDIPState struct {
	Entries []PDIPEntryState
	Targets []PDIPTargetState
	Tick    uint32
	Rng     uint64
	Stats   PDIPStats
}

// PDIPEntryState is one PDIP table entry: a trigger block's partial tag
// and LRU stamp. Its target slots are the entry's TargetsPerEntry
// consecutive PDIPState.Targets.
type PDIPEntryState struct {
	Valid bool
	Tag   uint32
	LRU   uint32
}

// PDIPTargetState is one target slot.
type PDIPTargetState struct {
	Valid bool
	Base  isa.Addr    // line address of the FEC prefetch candidate
	Mask  uint8       // bit k set → also prefetch Base + (k+1) lines
	Trig  TriggerKind // trigger class of the insertion
	LRU   uint32
}

// PDIPStats counts PDIP-specific events (pdip.Stats).
type PDIPStats struct {
	// InsertAttempts counts qualifying FEC retirements seen.
	InsertAttempts uint64
	// InsertFiltered counts attempts rejected by the insertion coin.
	InsertFiltered uint64
	// InsertNoTrigger counts attempts with no usable trigger.
	InsertNoTrigger uint64
	// InsertReturnSkipped counts return-resteer insertions skipped.
	InsertReturnSkipped uint64
	// Inserted counts new target placements.
	Inserted uint64
	// MaskMerged counts insertions folded into an existing target's mask.
	MaskMerged uint64
	// Lookups and Hits count FTQ-insert table probes.
	Lookups uint64
	Hits    uint64
}

// EIPState captures the entangling prefetcher: the commit-order history
// ring, the bounded table, and — in analytical mode — the unbounded map,
// key-sorted.
type EIPState struct {
	Hist  []EIPHistEntry
	Head  int
	Size  int
	Sets  [][]EIPEntryState
	Anal  []EIPAnalEntry
	Tick  uint32
	Stats EIPStats
}

// EIPHistEntry is one history-ring slot.
type EIPHistEntry struct {
	Line  isa.Addr `ckpt:"delta"`
	Cycle int64
}

// EIPEntryState is one bounded-table entry.
type EIPEntryState struct {
	Valid bool
	Tag   uint32
	LRU   uint32
	Dsts  []isa.Addr
}

// EIPAnalEntry is one analytical-table association, sorted by Src.
type EIPAnalEntry struct {
	Src  isa.Addr `ckpt:"delta"`
	Dsts []isa.Addr
}

// EIPStats counts EIP-specific events (eip.Stats).
type EIPStats struct {
	// Entangled counts (src → dst) associations recorded.
	Entangled uint64
	// NoSource counts misses whose latency predates the history window.
	NoSource uint64
	// Lookups and Hits count FTQ-insert probes.
	Lookups uint64
	Hits    uint64
}

// RDIPState captures the return-directed prefetcher: the signature table,
// the private RAS mirror, and pending retire-time requests.
type RDIPState struct {
	Sets    [][]RDIPEntryState
	Tick    uint32
	RAS     []isa.Addr
	Sig     uint64
	Pending []RequestState
	Stats   RDIPStats
}

// RDIPEntryState is one signature-table entry.
type RDIPEntryState struct {
	Valid bool
	Tag   uint32
	LRU   uint32
	Lines []isa.Addr
}

// RDIPStats counts RDIP events (rdip.Stats).
type RDIPStats struct {
	// ContextSwitches counts retired calls + returns.
	ContextSwitches uint64
	// Recorded counts miss lines recorded into contexts.
	Recorded uint64
	// Hits counts context switches that found a recorded miss set.
	Hits uint64
}

// FNLMMAState captures the FNL+MMA prefetcher tables.
type FNLMMAState struct {
	Worth    []uint8
	MMATag   []uint32
	MMADst   []isa.Addr
	MissRing []isa.Addr
	MissHead int
	Pending  []RequestState
	Stats    FNLMMAStats
}

// FNLMMAStats counts FNL+MMA events (fnlmma.Stats).
type FNLMMAStats struct {
	FNLEmitted uint64
	MMAEmitted uint64
	Trained    uint64
}

// NextLineState captures the sequential prefetcher.
type NextLineState struct {
	Degree  int
	Pending []RequestState
}
