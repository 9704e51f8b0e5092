// Package pdip is the public API of the PDIP reproduction: a cycle-level
// decoupled-front-end (FDIP) CPU simulator with the Priority Directed
// Instruction Prefetcher of Godala et al. (ASPLOS '24), the EIP baseline
// prefetcher, the EMISSARY L2 replacement policy, synthetic server
// workloads standing in for the paper's Table 2 benchmarks, and a harness
// that regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	res, err := pdip.Run(pdip.RunSpec{Benchmark: "cassandra", Policy: "pdip44"})
//	fmt.Println(res.Res.IPC())
//
// Or compare policies on a grid:
//
//	runner := pdip.NewRunner(0)
//	out, err := pdip.Experiment("fig10").Run(runner, pdip.QuickOptions())
//
// See cmd/pdipsim and cmd/experiments for command-line front-ends, and the
// examples/ directory for runnable programs.
package pdip

import (
	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/harness"
	"pdip/internal/metrics"
	"pdip/internal/policy"
	"pdip/internal/workload"
)

// RunSpec identifies one simulation run (benchmark × policy, instruction
// budgets, optional BTB override).
type RunSpec = harness.RunSpec

// RunResult pairs a RunSpec with the measured statistics snapshot.
type RunResult = harness.RunResult

// Result is the statistics snapshot of one run, with derived metrics
// (IPC, MPKIs, PPKI, prefetch accuracy, FEC shares).
type Result = core.Result

// Options scales a whole experiment (instruction budgets, benchmark
// subset, and knobs applied to every run).
type Options = harness.Options

// Runner executes and memoises simulation runs, warming each
// (benchmark, policy, btb, warmup) tuple once and forking the warm
// snapshot for every spec that differs only in measure-phase knobs.
type Runner = harness.Runner

// CheckpointStats counts warm-state reuse (warmups simulated, snapshot
// forks, in-memory and on-disk cache hits) for a Runner.
type CheckpointStats = harness.CheckpointStats

// RunnerStats is Runner.Stats()'s programmatic execution report: runs
// executed, memoisation hits, and the warm-state reuse counters. The
// fabric coordinator aggregates one of these per worker.
type RunnerStats = harness.RunnerStats

// Profile is a synthetic benchmark profile (see Benchmarks).
type Profile = workload.Profile

// Policy is a named machine configuration (see Policies).
type Policy = policy.Policy

// ProgramParams parameterises synthetic program generation for custom
// workloads (see examples/custom_workload).
type ProgramParams = cfg.Params

// CoreConfig is the full simulated-core configuration (Table 1 defaults
// via DefaultCoreConfig).
type CoreConfig = core.Config

// Snapshot is a stable-ordered capture of every registered metric of a
// run: named counters (with histogram buckets expanded) plus float gauges.
type Snapshot = metrics.Snapshot

// Sample is one per-interval Snapshot taken every RunSpec.SampleEvery
// retired instructions.
type Sample = metrics.Sample

// MetricsExport is the JSON document written by `pdipsim -stats-json`:
// the final snapshot plus any interval samples.
type MetricsExport = metrics.Export

// SocketOptions sets socket-wide policy for a multi-tenant run: the
// shared-vs-per-core PDIP table mode and the per-tenant MSHR reservation
// at the shared levels.
type SocketOptions = harness.SocketOptions

// SocketRunResult packages one multi-tenant run: per-tenant results plus
// the shared-level (uncore) interference counters.
type SocketRunResult = harness.SocketRunResult

// Run executes one simulation run without memoisation.
func Run(spec RunSpec) (*RunResult, error) { return harness.Execute(spec) }

// RunSocket co-schedules one core per spec against a shared L2/L3 uncore
// with deterministic round-robin arbitration, and reports each tenant's
// result (measured over exactly its own instruction budget) alongside the
// shared-level interference counters (per-tenant traffic, MSHR steals,
// cross-tenant evictions). All specs must carry the same warmup/measure
// budgets. A single-spec call is bit-identical to Run.
func RunSocket(specs []RunSpec, so SocketOptions) (*SocketRunResult, error) {
	return harness.ExecuteSocket(specs, so)
}

// RecordTrace exports spec's synthetic instruction stream as a ChampSim
// trace at path (gzipped when path ends in ".gz"). n instructions are
// recorded; n == 0 sizes the trace to the spec's warmup+measure budget
// plus enough slack that replaying the same spec never wraps. The
// recorded trace replays bit-identically through RunSpec.TracePath with
// TraceDifferential set.
func RecordTrace(spec RunSpec, path string, n uint64) error {
	return harness.RecordTrace(spec, path, n)
}

// VerifyDeterminism runs spec twice from scratch and returns an error
// describing the first divergence if the two full metric snapshots are not
// bit-identical. Deterministic replay is the simulator's core correctness
// contract; see DESIGN.md §Observability.
func VerifyDeterminism(spec RunSpec) error { return harness.VerifyDeterminism(spec) }

// NewRunner returns a memoising runner bounded to n concurrent runs
// (n <= 0 uses GOMAXPROCS).
func NewRunner(n int) *Runner { return harness.NewRunner(n) }

// NewRunnerWithCheckpoints returns a runner that additionally persists
// warm-state checkpoints under dir (content-addressed by workload,
// configuration, and state-format version), so repeat process invocations
// skip warmup entirely. An empty dir keeps warm states in memory only.
func NewRunnerWithCheckpoints(n int, dir string) *Runner {
	return harness.NewRunnerWithCheckpoints(n, dir)
}

// CheckpointDir is a content-addressed on-disk warm-state store fronted
// by a size-bounded in-memory cache of decoded states, so repeated forks
// of the same warm tuple pay the binary decode once per process rather
// than once per run. It is a Runner's only warm-state cache; with an
// empty path it is memory-only.
type CheckpointDir = checkpoint.Dir

// CheckpointDirStats is a CheckpointDir's cache accounting (memory hits,
// disk hits, misses, stores, evictions).
type CheckpointDirStats = checkpoint.DirStats

// NewCheckpointDir opens the warm-state store rooted at path. cacheBytes
// bounds the in-memory decoded-state cache, charging each state its
// decoded size (0 selects the default of 256 MiB, ~150 warm states;
// negative disables caching). The directory is created lazily on first
// Save; an empty path keeps states in memory only.
func NewCheckpointDir(path string, cacheBytes int64) *CheckpointDir {
	return checkpoint.NewDir(path, cacheBytes)
}

// NewRunnerWithDir returns a runner over an existing checkpoint store.
// Several runners may share one store — fleet workers started in the
// same process do, so each warm tuple is decoded once and every sibling
// forks it from memory.
func NewRunnerWithDir(n int, ck *CheckpointDir) *Runner {
	return harness.NewRunnerWithDir(n, ck)
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options { return harness.DefaultOptions() }

// QuickOptions returns a reduced scale for smoke runs and examples.
func QuickOptions() Options { return harness.QuickOptions() }

// Benchmarks returns the 16 paper benchmarks (Table 2) as synthetic
// profiles, in presentation order.
func Benchmarks() []Profile { return workload.All() }

// BenchmarkNames returns the benchmark names in presentation order.
func BenchmarkNames() []string { return workload.Names() }

// BenchmarkByName returns the named benchmark profile.
func BenchmarkByName(name string) (Profile, error) { return workload.ByName(name) }

// Policies returns every registered policy (Table 3 plus ablations).
func Policies() []Policy { return policy.All() }

// PolicyByName returns the named policy.
func PolicyByName(name string) (Policy, error) { return policy.ByName(name) }

// DefaultCoreConfig returns the paper's Golden Cove-like baseline core
// configuration (Table 1).
func DefaultCoreConfig() CoreConfig { return core.DefaultConfig() }

// ExperimentInfo describes one regenerable table or figure.
type ExperimentInfo = harness.Experiment

// Experiments returns every regenerable paper artifact in paper order.
func Experiments() []ExperimentInfo { return harness.Experiments() }

// Experiment returns the experiment with the given id ("fig10", "tab4",
// ...); it panics on unknown ids (use ExperimentByID for errors).
func Experiment(id string) ExperimentInfo {
	e, err := harness.ExperimentByID(id)
	if err != nil {
		panic(err)
	}
	return e
}

// ExperimentByID returns the experiment with the given id.
func ExperimentByID(id string) (ExperimentInfo, error) { return harness.ExperimentByID(id) }

// RunProfile simulates a custom workload profile under a custom core
// configuration, returning the measured snapshot. Warmup executes first
// with statistics discarded.
func RunProfile(p Profile, c CoreConfig, warmup, measure uint64) (Result, error) {
	prog, err := p.Program()
	if err != nil {
		return Result{}, err
	}
	c.MemOpFrac = p.MemOpFrac
	c.DataHotLines = p.DataHotLines
	c.DataColdLines = p.DataColdLines
	c.DataHotFrac = p.DataHotFrac
	co, err := core.New(prog, c)
	if err != nil {
		return Result{}, err
	}
	if err := co.Run(warmup); err != nil {
		return Result{}, err
	}
	co.ResetStats()
	if err := co.Run(measure); err != nil {
		return Result{}, err
	}
	return co.Result(), nil
}
