// Package fabric turns the simulator into a distributed grid engine: a
// coordinator expands a benchmark×policy×BTB×seed grid into a
// deterministic job queue sharded over worker processes, workers pull
// jobs and resolve warm state through the shared content-addressed
// checkpoint directory (warming each tuple once cluster-wide via
// coordinator-held leases, forking everywhere else), stream incremental
// metric snapshots back, and heartbeat. The coordinator tolerates worker
// loss by lease-expiry re-queueing — jobs are idempotent, reruns are
// bit-identical by construction — and merges results deterministically by
// cell key, so a distributed run's merged output is byte-identical to a
// serial Runner.RunAll over the same grid.
//
// Everything in this package sits above the simulated clock: wall-clock
// time appears only in the scheduling fabric (leases, heartbeats, retry
// backoff), never in a simulation result. See DESIGN.md §5g.
package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pdip/internal/harness"
	"pdip/internal/policy"
	"pdip/internal/workload"
)

// Grid declares a benchmark×policy×BTB×seed sweep as plain JSON. Zero
// axes default to a single default cell on that axis (profile BTB,
// profile seed); zero budgets default to the standard experiment scale.
type Grid struct {
	Benchmarks []string `json:"benchmarks"`
	Policies   []string `json:"policies"`
	// BTBEntries sweeps BTB capacities; 0 (or empty) keeps Table 1's.
	BTBEntries []int `json:"btb_entries,omitempty"`
	// Seeds sweeps the core's random streams (the oracle walk over the
	// fixed program and the data-side streams, see harness.RunSpec.Seed)
	// for confidence intervals; 0 (or empty) keeps each profile's pinned
	// seed.
	Seeds []uint64 `json:"seeds,omitempty"`

	Warmup  uint64 `json:"warmup,omitempty"`
	Measure uint64 `json:"measure,omitempty"`
	// SampleEvery > 0 streams a full metric snapshot every that many
	// measured instructions from worker to coordinator.
	SampleEvery   uint64 `json:"sample_every,omitempty"`
	CollectSets   bool   `json:"collect_sets,omitempty"`
	NoFastForward bool   `json:"no_fast_forward,omitempty"`
	// TraceDir, when non-empty, drives every cell from
	// <TraceDir>/<benchmark>.champsim[.gz].
	TraceDir string `json:"trace_dir,omitempty"`
}

// Specs expands the grid into its job list in deterministic nested order
// (benchmark, then policy, then BTB, then seed) and validates every name
// against the registries, so a typo fails at submission, not mid-grid.
func (g Grid) Specs() ([]harness.RunSpec, error) {
	if len(g.Benchmarks) == 0 || len(g.Policies) == 0 {
		return nil, fmt.Errorf("fabric: grid needs at least one benchmark and one policy")
	}
	for _, b := range g.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return nil, fmt.Errorf("fabric: grid: %w", err)
		}
	}
	for _, p := range g.Policies {
		if _, err := policy.ByName(p); err != nil {
			return nil, fmt.Errorf("fabric: grid: %w", err)
		}
	}
	btbs := g.BTBEntries
	if len(btbs) == 0 {
		btbs = []int{0}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	specs := make([]harness.RunSpec, 0, len(g.Benchmarks)*len(g.Policies)*len(btbs)*len(seeds))
	for _, b := range g.Benchmarks {
		for _, p := range g.Policies {
			for _, btb := range btbs {
				for _, seed := range seeds {
					s := harness.RunSpec{
						Benchmark:     b,
						Policy:        p,
						BTBEntries:    btb,
						Seed:          seed,
						Warmup:        g.Warmup,
						Measure:       g.Measure,
						SampleEvery:   g.SampleEvery,
						CollectSets:   g.CollectSets,
						NoFastForward: g.NoFastForward,
					}
					if g.TraceDir != "" {
						s.TracePath = harness.TracePathFor(g.TraceDir, b)
					}
					specs = append(specs, s)
				}
			}
		}
	}
	return specs, nil
}

// ParseGrid decodes a Grid from JSON, rejecting unknown fields so a
// misspelled axis fails loudly.
func ParseGrid(r io.Reader) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("fabric: parse grid: %w", err)
	}
	return g, nil
}

// LoadGrid reads a Grid JSON file.
func LoadGrid(path string) (Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return Grid{}, fmt.Errorf("fabric: %w", err)
	}
	defer f.Close()
	return ParseGrid(f)
}

// Shard returns the i-th of n static shards of cells: every cell whose
// index ≡ i (mod n). Striding (rather than chunking) balances shards even
// when cost correlates with grid position (adjacent cells share a
// benchmark). The union of all n shards is exactly cells, disjoint — the
// no-coordinator fallback `experiments -shard i/n` and `gridd -shard`
// both slice with this.
func Shard[T any](cells []T, i, n int) []T {
	if n <= 1 {
		return cells
	}
	var out []T
	for j := i; j < len(cells); j += n {
		out = append(out, cells[j])
	}
	return out
}

// ParseShard parses the "i/n" shard syntax (0 ≤ i < n).
func ParseShard(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("fabric: shard %q: want i/n (e.g. 0/4)", s)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("fabric: shard %q: want 0 <= i < n", s)
	}
	return i, n, nil
}
