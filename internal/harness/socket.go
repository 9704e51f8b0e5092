package harness

import (
	"pdip/internal/metrics"
)

// SocketOptions sets socket-wide policy for a multi-tenant run.
type SocketOptions struct {
	// SharedPrefetcher shares tenant 0's prefetcher (one PDIP table for
	// the socket) instead of the default per-core tables.
	SharedPrefetcher bool
	// L2Reserve/L3Reserve are per-tenant reserved MSHR shares at the
	// shared levels (0 picks the default split, see uncore.Config).
	L2Reserve, L3Reserve int
}

// SocketRunResult packages one multi-tenant run: a per-tenant RunResult
// (each measured over exactly its Measure budget, frozen at its quota
// crossing) plus the shared-level interference counters.
type SocketRunResult struct {
	// Tenants holds one result per spec, in spec order.
	Tenants []*RunResult
	// Interference is the uncore registry snapshot: shared L2/L3 stats
	// plus per-tenant traffic, MSHR-steal, and cross-eviction counters.
	Interference metrics.Snapshot
	// Combined merges every tenant's registry (under "tenant<i>."
	// prefixes) with the uncore registry: the one flat namespace used
	// for JSON export and cross-run diffing.
	Combined metrics.Snapshot
	// Cycles is the socket clock at the end of the measured window.
	Cycles int64
}

// ExecuteSocket performs one multi-tenant run from scratch: N cores in
// lockstep against one shared uncore. Every spec must carry the same
// Warmup/Measure budgets (the socket warms and measures all tenants over
// one shared clock), and sampling needs a single spec. Execute is the
// one-spec case.
func ExecuteSocket(specs []RunSpec, so SocketOptions) (*SocketRunResult, error) {
	tenants, s, err := executeScratch(specs, so, nil)
	if err != nil {
		return nil, err
	}
	return &SocketRunResult{
		Tenants:      tenants,
		Interference: s.InterferenceSnapshot(),
		Combined:     s.CombinedSnapshot(),
		Cycles:       s.Cycles(),
	}, nil
}
