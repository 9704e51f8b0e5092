//go:build ignore

// This file is data, not code: it is excluded from every build and read
// only by simlint's checkpointcoverage analyzer (internal/lint), which
// parses checkpointManifest and checkpointRoots out of it and checks them
// against the loaded packages with go/types.

package core

import (
	"reflect"

	"pdip/internal/eip"
	"pdip/internal/fnlmma"
	"pdip/internal/pdip"
	"pdip/internal/prefetch"
	"pdip/internal/rdip"
	"pdip/internal/trace"
	"pdip/internal/trace/champsim"
)

// checkpointManifest is the authoritative field-coverage ledger of the
// checkpoint format: every field of every struct reachable from the
// simulator's state roots must be listed here with a disposition, so
// adding state to the simulator without deciding its checkpoint treatment
// fails lint instead of silently diverging on replay. The walk stops at
// the checkpoint package's own declarations: a field of such a type holds
// wire state directly, and its capture and restore are checked against
// the State tree instead.
//
// Dispositions:
//
//	state   — captured in checkpoint.State (walk recurses into it)
//	config  — construction parameter, rebuilt identically by New from Config
//	wiring  — reference/port/stage plumbing, rebuilt identically by New
//	pool    — free-list; recycled objects are reset field-for-field, so an
//	          empty pool is behaviourally identical to a warm one
//	scratch — within-cycle or invariant-only bookkeeping, empty/ignorable
//	          at every cycle boundary (where snapshots are taken)
//	memo    — pure cache, invalidated on restore and recomputed on demand
//	derived — recomputed from captured fields during construction/restore
//	diag    — diagnostics or measurement output cleared by ResetStats
//	          (snapshot forks call ResetStats before measuring)
var checkpointManifest = map[string]map[string]string{
	"core.Core": {
		"cfg":  "config",
		"prog": "config",
		// sock is the back-pointer to the socket that owns (and captures)
		// the core.
		"sock":  "wiring",
		"hier":  "state",
		"iport": "wiring", "dport": "wiring",
		"bp": "state", "iag": "state", "ftq": "state", "pq": "state", "rob": "state",
		// walker is the oracle iag captures, kept to release its tables.
		"walker": "wiring",
		// pf is captured through prefetch.Checkpointer; the concrete types
		// are walk roots because reflection cannot traverse an interface.
		"pf":       "state",
		"pipe":     "wiring",
		"decodeQ":  "state",
		"ifuEntry": "state",
		"now":      "state", "seq": "state", "retired": "state",
		"pendingResteer": "state", "hasResteer": "state", "iagResumeAt": "state",
		"shadowTrigger": "state", "shadowWasReturn": "state", "shadowLeft": "state",
		"lastTakenBlock": "state",
		"promoted":       "state", "fecEver": "state",
		"pfSet": "state", "fecReqAge": "state", "fecHolds": "state",
		"dataRng": "state", "promoRng": "state",
		"reg": "state", "ct": "wiring",
		"sampleEvery": "state", "samples": "diag", "sampleHook": "diag",
		"reqBuf": "scratch", "retireBuf": "scratch",
		"uopFree": "pool", "epFree": "pool",
		"pfEmitter": "wiring", "pfCallsRet": "wiring",
	},
	"pdip.PDIP": {
		"cfg": "config", "entries": "state", "targets": "state", "tick": "state", "r": "state",
		"Stats": "state",
	},
	"eip.EIP": {
		"cfg": "config", "hist": "state", "head": "state", "size": "state",
		"sets": "state", "anal": "state", "tick": "state", "Stats": "state",
		// entries and dsts back sets and every entry's Dsts: captured
		// through sets, rebuilt by New.
		"entries": "wiring", "dsts": "wiring",
	},
	"rdip.RDIP": {
		"cfg": "config", "sets": "state", "tick": "state", "ras": "state",
		// entries and lines back sets and every entry's Lines: captured
		// through sets, rebuilt by New.
		"entries": "wiring", "lines": "wiring",
		"sig": "state", "pending": "state", "Stats": "state",
	},
	"fnlmma.FNLMMA": {
		"cfg": "config", "worth": "state", "mmaTag": "state", "mmaDst": "state",
		"missRing": "state", "missHead": "state", "pending": "state", "Stats": "state",
	},
	"prefetch.NextLine": {
		"Degree": "config", "pending": "state",
	},
	"prefetch.None": {},

	// L2/L3 are views of the uncore's caches, captured once in
	// checkpoint.UncoreState.
	"mem.Hierarchy": {
		"L1I": "state", "L1D": "state", "L2": "state", "L3": "state",
		"inst": "wiring", "data": "wiring",
	},
	// Socket-level state: the shared uncore is captured once
	// (checkpoint.UncoreState), cores as children. first is now mod N,
	// recomputed from the restored clock; targets/finals are Run
	// bookkeeping re-established by the next Run call, not simulator state.
	"core.Socket": {
		"cores": "state", "unc": "state",
		"cfg": "config", "noFF": "config",
		"now": "state", "first": "derived",
		"targets": "diag", "finals": "diag",
	},
	"uncore.Uncore": {
		"L2": "state", "L3": "state",
		"DRAMLatency": "config",
		"chain":       "wiring", "ports": "wiring",
		"reg": "state",
	},
	"bpu.BPU": {
		"Tage": "state", "Ittage": "state", "Btb": "state", "Ras": "state",
		"Stats": "state",
	},
	"frontend.IAG": {
		"BPU":    "wiring",
		"oracle": "state", "wrong": "state",
		"maxEntryInsts":     "config",
		"pendingMispredict": "state",
		"free":              "pool", "wrongFree": "pool",
	},
	"frontend.FTQ": {
		"entries": "state",
		// Ring phase is representation, not simulated state: restore
		// re-pushes entries oldest-first at head = 0.
		"head": "derived", "count": "derived",
	},
	"prefetch.Queue": {
		"entries": "state",
		"head":    "derived", "count": "derived",
		"ReserveMSHRs": "config", "IssuePerCycle": "config", "ZeroCost": "config",
		"Stats": "state",
	},
	"backend.ROB": {
		"entries": "state",
		"head":    "derived", "count": "derived",
		"Stats": "state",
	},
	"pipeline.Latch": {
		"buf":  "state",
		"head": "derived",
	},
	// Pipeline records hold their checkpoint declarations; the episode
	// pointers beside them are captured as indexes into the deduplicated
	// episode table, so shared-episode identity survives the round trip.
	"frontend.FTQEntry":    {"FTQEntryState": "state", "Episodes": "state"},
	"frontend.Uop":         {"UopState": "state", "Ep": "state"},
	"frontend.LineEpisode": {"EpisodeState": "state"},
	"rng.RNG": {
		"state": "state",
	},
	"metrics.Registry": {
		// Owned metric values are captured name-sorted; bound functions
		// read live simulator state and are excluded by construction.
		"counters": "state", "gauges": "state", "hists": "state",
		"counterFns": "wiring", "gaugeFns": "wiring",
	},

	"cache.Cache": {
		"cfg": "config", "setMask": "derived",
		"tag": "state", "lru": "state", "readyAt": "state",
		"valid": "state", "priority": "state", "prefetched": "state",
		"owner": "state",
		"tick":  "state", "inflight": "state", "inflightMin": "state",
		"Stats": "state",
		// Owner tracking (shared levels): the owner columns are state; the
		// per-owner occupancy is recounted from InflightOwner at restore,
		// and the earliest-free scratch is reused per call.
		"Owners":        "state",
		"ownerReserve":  "config",
		"ownerUsed":     "derived",
		"inflightOwner": "state",
		"scratchT":      "scratch", "scratchO": "scratch", "scratchU": "scratch",
	},
	"bpu.TAGE": {
		"base": "state", "tables": "state", "hist": "state",
		"idxFold": "state", "tagFold": "state", "tg2Fold": "state",
		"useAltOnNa": "state", "allocSeed": "state",
		"memoPC": "memo", "memoOK": "memo", "memoIdx": "memo", "memoTag": "memo",
	},
	"bpu.ITTAGE": {
		"base": "state", "tables": "state", "hist": "state",
		"idxFold": "state", "tagFold": "state", "allocSeed": "state",
		"memoPC": "memo", "memoOK": "memo", "memoIdx": "memo", "memoTag": "memo",
	},
	"bpu.BTB": {
		"entries":  "state",
		"setShift": "derived", "tagShift": "derived", "setMask": "derived",
		"tick": "state",
	},
	"bpu.RAS": {
		"entries": "state", "top": "state", "depth": "state",
	},
	"trace.Walker": {
		// stack holds return blocks, captured as their addresses; loopCnt
		// is captured as its nonzero counters.
		"prog": "config", "r": "state", "stack": "state", "loopCnt": "state",
		"cur":     "state",
		"instIdx": "state", "lostPC": "state", "wrongPath": "state",
		"dispatchCenter": "state", "count": "state",
	},
	"isa.Inst": {
		"PC": "state", "Size": "state", "Kind": "state",
		"Taken": "state", "Target": "state",
	},
	"metrics.Counter": {"v": "state"},
	"metrics.Gauge":   {"v": "state"},
	"metrics.Histogram": {
		"bounds": "config",
		"counts": "state", "total": "state", "sum": "state",
	},

	"bpu.history": {
		"bits": "state", "head": "state",
	},
	"bpu.foldedHist": {
		"comp":    "state",
		"origLen": "derived", "width": "derived", "outPoint": "derived",
	},
	// ChampSim trace replay: the trace file is reconstruction input, the
	// stream position and derived-wrong-path structures are the state
	// (ChampSimState in the checkpoint's SourceState union). err latches
	// replay divergences for post-run reporting and is reset on restore.
	"champsim.Source": {
		"r": "state", "shadow": "state",
		"cur": "state", "primed": "state", "count": "state",
		"dec": "state", "ras": "state",
		"err":       "diag",
		"freeWrong": "pool",
	},
	// The reader's chunk window and pass position are re-derived from the
	// captured instruction count (RestoreSource reseeks the stream).
	"champsim.Reader": {
		"path": "config", "f": "wiring", "zr": "wiring", "gz": "config",
		"buf": "scratch", "pos": "derived", "n": "derived",
		"recInPass": "derived", "passRecords": "config", "wraps": "derived",
	},
	// The lookahead record is re-read from the reseeked stream; its wire
	// fields are state in the same sense the walker's position is.
	"champsim.Record": {
		"IP": "derived", "IsBranch": "derived", "BranchTaken": "derived",
		"DestRegs": "derived", "SrcRegs": "derived",
		"DestMem": "derived", "SrcMem": "derived",
	},
	"champsim.decodeCache": {"inst": "state", "valid": "state"},
	"champsim.rasMirror":   {"buf": "state", "top": "state", "depth": "state"},
	"champsim.Wrong":       {"src": "wiring", "pc": "state", "ras": "state"},
}

// checkpointRoots returns the state roots of the walk: the core itself
// plus every implementation reachable only through an interface, which
// reflection cannot traverse — the prefetchers (prefetch.Prefetcher) and
// the instruction sources (trace.Source / trace.OracleSource).
func checkpointRoots() []reflect.Type {
	return []reflect.Type{
		reflect.TypeOf(Core{}),
		reflect.TypeOf(Socket{}),
		reflect.TypeOf(pdip.PDIP{}),
		reflect.TypeOf(eip.EIP{}),
		reflect.TypeOf(rdip.RDIP{}),
		reflect.TypeOf(fnlmma.FNLMMA{}),
		reflect.TypeOf(prefetch.NextLine{}),
		reflect.TypeOf(prefetch.None{}),
		reflect.TypeOf(trace.Walker{}),
		reflect.TypeOf(champsim.Source{}),
		reflect.TypeOf(champsim.Wrong{}),
	}
}
