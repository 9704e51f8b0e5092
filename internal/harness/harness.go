// Package harness runs (benchmark × policy) simulation grids with warmup,
// caches results for cross-run comparisons (speedups, FEC-stall reduction,
// coverage), and formats the rows of every table and figure in the paper's
// evaluation (see experiments.go).
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/metrics"
	"pdip/internal/policy"
	"pdip/internal/workload"
)

// Options scales a whole experiment.
type Options struct {
	// Warmup and Measure are per-run instruction budgets. The paper warms
	// ~10M and measures 100M on gem5; the defaults here are scaled so the
	// full grid completes in minutes with the same pipeline model.
	Warmup, Measure uint64
	// Benchmarks restricts the benchmark set (nil = all 16).
	Benchmarks []string
	// NoFastForward disables idle-cycle fast-forward on every run (see
	// RunSpec.NoFastForward).
	NoFastForward bool
	// TraceDir, when non-empty, drives every run from
	// <TraceDir>/<benchmark>.champsim[.gz] instead of walking the
	// synthetic CFG directly (see RunSpec.TracePath).
	TraceDir string
	// TraceDifferential cross-checks each trace against the synthetic
	// walker it was recorded from (see RunSpec.TraceDifferential).
	TraceDifferential bool
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{Warmup: 300_000, Measure: 1_000_000}
}

// QuickOptions returns a reduced scale for smoke tests and examples.
func QuickOptions() Options {
	return Options{Warmup: 60_000, Measure: 200_000}
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.Names()
}

// RunSpec identifies one simulation run.
type RunSpec struct {
	// Benchmark and Policy name the workload profile and configuration.
	Benchmark, Policy string
	// BTBEntries overrides the BTB capacity when > 0 (Fig 14/15 sweeps).
	BTBEntries int
	// Warmup and Measure are instruction budgets.
	Warmup, Measure uint64
	// CollectSets turns on the FEC classification (core.Config.CollectSets).
	CollectSets bool
	// SampleEvery > 0 records a full metrics snapshot every that many
	// measured instructions (IPC/MPKI trajectories).
	SampleEvery uint64
	// NoFastForward disables idle-cycle fast-forward for this run (the
	// core.Config flag of the same name); metrics must be bit-identical
	// either way, and TestFastForwardBitIdentical holds the simulator to it.
	NoFastForward bool
	// Seed, when nonzero, perturbs every random stream the core draws
	// from core.Config.Seed: the oracle walk over the program (branch
	// directions, loop exits, indirect and dispatch targets — trace.New,
	// and the shadow walker of a differential trace replay) as well as
	// the data-side streams (memory behaviour, wrong-path noise). The
	// benchmark's program is not regenerated, so a seed axis samples
	// walks over one fixed program instance for confidence-interval
	// sweeps. Zero keeps the profile's pinned default, so every existing
	// spec (and golden cell) is unchanged.
	Seed uint64
	// TracePath, when non-empty, drives the run from a ChampSim trace
	// instead of walking the synthetic CFG directly. The benchmark still
	// names the workload profile, which supplies the data-side model (and,
	// differentially, the shadow walker).
	TracePath string
	// TraceDifferential runs the trace in differential mode: every decoded
	// instruction is cross-checked against a lockstep synthetic walker and
	// a divergence fails the run. Requires TracePath, and the trace must
	// have been recorded from this benchmark's profile.
	TraceDifferential bool
}

// Key renders the spec as a stable string ("bench/policy[@btbK][+trace]"),
// used for metric export maps and error messages.
func (s RunSpec) Key() string {
	k := s.Benchmark + "/" + s.Policy
	if s.BTBEntries > 0 {
		k = fmt.Sprintf("%s@%dK-BTB", k, s.BTBEntries/1024)
	}
	if s.Seed != 0 {
		k = fmt.Sprintf("%s#seed%d", k, s.Seed)
	}
	if s.TracePath != "" {
		if s.TraceDifferential {
			k += "+difftrace"
		} else {
			k += "+trace"
		}
	}
	return k
}

// RunResult pairs a spec with its measured snapshot.
type RunResult struct {
	Spec RunSpec
	Res  core.Result
	// Metrics is the full registry snapshot at the end of the measured
	// window (superset of Res, including prefetcher-internal counters).
	Metrics metrics.Snapshot
	// Samples holds interval snapshots when Spec.SampleEvery > 0.
	Samples []metrics.Sample
}

// call is one in-flight Run, shared by every goroutine that submitted the
// same spec: the first registrant executes, the rest block on done.
type call struct {
	done chan struct{}
	res  *RunResult
	err  error
}

// warmSpec is the spec's warm-state identity: everything that influences
// the machine's state at the end of warmup, which is the spec with its
// warmup normalised and its measure-phase fields (Measure, SampleEvery,
// CollectSets) zeroed. Specs that differ only in those fields share one
// warm spec, and so one warmup, which runs the warm spec itself:
// CollectSets has no timing effect and its sets are cleared at the
// measurement boundary anyway, so the cheapest configuration warms for
// all of them.
func (s RunSpec) warmSpec() RunSpec {
	s.Warmup, _ = s.budgets()
	s.Measure, s.SampleEvery, s.CollectSets = 0, 0, false
	return s
}

// WarmTuple renders the spec's warm-state identity as a stable string, or
// "" when the spec has no warmup phase and therefore nothing to share.
// Specs with equal tuples fork the same warm state, so a scheduler (the
// fabric coordinator) can warm each tuple once cluster-wide and hold the
// tuple's remaining jobs back until the warm checkpoint exists.
func (s RunSpec) WarmTuple() string {
	w := s.warmSpec()
	if w.Warmup == 0 {
		return ""
	}
	return fmt.Sprintf("%v", w)
}

// RunnerStats is the programmatic view of a Runner's activity: how many
// specs it actually simulated, how many were served from the memoisation
// cache, and the warm-state reuse counters. It is a plain value snapshot,
// taken atomically under the runner's lock, so concurrent consumers (the
// fabric coordinator aggregating per-worker stats, tests, the experiments
// CLI's single end-of-run report) never observe interleaved prints or
// torn counters.
type RunnerStats struct {
	// RunsExecuted counts specs this runner simulated itself.
	RunsExecuted uint64
	// CacheHits counts Run calls served from the memoisation cache
	// (including singleflight waiters that blocked on a leader's run).
	CacheHits uint64
	// Checkpoint holds the warm-state reuse counters.
	Checkpoint CheckpointStats
}

// Add accumulates o into s (aggregating stats across fleet workers).
func (s *RunnerStats) Add(o RunnerStats) {
	s.RunsExecuted += o.RunsExecuted
	s.CacheHits += o.CacheHits
	s.Checkpoint.Forks += o.Checkpoint.Forks
	s.Checkpoint.WarmupsExecuted += o.Checkpoint.WarmupsExecuted
	s.Checkpoint.MemoryHits += o.Checkpoint.MemoryHits
	s.Checkpoint.DirCacheHits += o.Checkpoint.DirCacheHits
	s.Checkpoint.DiskHits += o.Checkpoint.DiskHits
	s.Checkpoint.DiskStores += o.Checkpoint.DiskStores
	s.Checkpoint.DiskStoreFailures += o.Checkpoint.DiskStoreFailures
}

// CheckpointStats counts warm-state reuse for before/after reporting.
// Every fork's warm tuple was resolved in one of four ways, counted by
// MemoryHits, DirCacheHits, DiskHits and WarmupsExecuted.
type CheckpointStats struct {
	// Forks counts runs served by forking a warm snapshot.
	Forks uint64
	// WarmupsExecuted counts warmups actually simulated.
	WarmupsExecuted uint64
	// MemoryHits counts repeat resolutions: a tuple this runner already
	// resolved, found decoded in its checkpoint.Dir.
	MemoryHits uint64
	// DirCacheHits counts a runner's first resolution of a tuple served
	// already-decoded from its checkpoint.Dir — no disk read, no decode —
	// including a wait on a warmup or load already under way for the
	// tuple. With several runners sharing one Dir (fleet workers), these
	// are forks that skipped the disk entirely because a sibling had
	// already paid for the warmup or the decode.
	DirCacheHits uint64
	// DiskHits counts warm states read and decoded from the on-disk
	// -checkpoint-dir store: a first resolution, or a repeat whose state
	// the Dir had evicted. DiskStores counts warm states written to it,
	// and DiskStoreFailures the writes that failed (the run forks the
	// simulated state regardless, and the Dir keeps it in memory). The
	// failure count is left out of the fabric's JSON stats while zero, so
	// a healthy fleet's messages keep their bytes.
	DiskHits          uint64
	DiskStores        uint64
	DiskStoreFailures uint64 `json:",omitempty"`
}

// Runner executes and memoises runs. A Runner with a checkpoint store
// runs specs that include a warmup window through the warm-state layer:
// it warms each warm spec once (per process — or per checkpoint
// directory, when the store has one), snapshots the complete simulator
// state, and forks the snapshot for every spec that shares it. Warm
// states live in one place, the store, which settles each one once
// however many runners ask (checkpoint.Dir.Resolve) and whose LRU bounds
// their memory. A Runner without a store warms and measures every spec
// on one socket, as Execute does, and snapshots nothing.
type Runner struct {
	mu       sync.Mutex
	cache    map[RunSpec]*RunResult
	errs     map[RunSpec]error
	inflight map[RunSpec]*call
	// keys holds the store key of every warm spec this runner resolved,
	// so a repeat fork does not re-hash its configuration, and tells a
	// repeat resolution from a first one in the stats.
	keys  map[RunSpec]string
	stats RunnerStats
	// executor, when set, replaces local execution for cache-missing
	// runs: the spec is handed to it (the fabric fleet's submit path)
	// and the returned result is memoised exactly as a local one.
	executor func(RunSpec) (*RunResult, error)
	// ck is the warm-state store: a content-addressed on-disk directory
	// shared across processes, fronted by its decoded in-memory cache
	// (shared across every Runner holding the same Dir — fleet workers in
	// one process fork each tuple's decode exactly once), or that cache
	// alone (memory-only). Nil for a Runner without a store.
	ck  *checkpoint.Dir
	sem chan struct{}
}

// NewRunner returns a Runner bounded to parallelism concurrent runs,
// without a checkpoint store: each spec warms and measures on one socket.
func NewRunner(parallelism int) *Runner {
	return NewRunnerWithDir(parallelism, nil)
}

// NewRunnerWithCheckpoints returns a Runner that additionally persists
// warm-state checkpoints under dir (content-addressed by workload +
// configuration + format version), so repeat process invocations skip
// warmup entirely. An empty dir gives a Runner without a store, as
// NewRunner does.
func NewRunnerWithCheckpoints(parallelism int, dir string) *Runner {
	var ck *checkpoint.Dir
	if dir != "" {
		ck = checkpoint.NewDir(dir, 0)
	}
	return NewRunnerWithDir(parallelism, ck)
}

// NewRunnerWithDir is NewRunnerWithCheckpoints over an existing store —
// the form that lets several Runners (the fabric fleet's workers) share
// one decoded-state cache. A nil ck gives a Runner without a store. To
// share warm states within one process without files, pass a memory-only
// store, checkpoint.NewDir("", budget).
func NewRunnerWithDir(parallelism int, ck *checkpoint.Dir) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		cache:    make(map[RunSpec]*RunResult),
		errs:     make(map[RunSpec]error),
		inflight: make(map[RunSpec]*call),
		keys:     make(map[RunSpec]string),
		ck:       ck,
		sem:      make(chan struct{}, parallelism),
	}
}

// CheckpointDir returns the store this runner keeps warm states in, or nil
// when it has none. A memory-only store's Path is "".
func (r *Runner) CheckpointDir() *checkpoint.Dir { return r.ck }

// Stats returns an atomic snapshot of the runner's activity counters
// (runs executed, cache hits, warm-state reuse). Consumers report it once
// at end of run instead of interleaving prints under concurrency.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// SetExecutor routes every cache-missing Run through exec instead of
// executing locally — the hook `experiments -fabric-workers` uses to push
// an unmodified experiment grid through a distributed fleet. Memoisation
// and per-spec singleflight still apply in front of exec. Must be set
// before the first Run; a nil exec restores local execution.
func (r *Runner) SetExecutor(exec func(RunSpec) (*RunResult, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.executor = exec
}

// Run executes spec (or returns the memoised result). Concurrent calls
// with the same spec are singleflighted: the first registers an in-flight
// call and executes; later submitters block on it and share the result
// instead of duplicating the run.
func (r *Runner) Run(spec RunSpec) (*RunResult, error) {
	r.mu.Lock()
	if res, ok := r.cache[spec]; ok {
		r.stats.CacheHits++
		r.mu.Unlock()
		return res, nil
	}
	if err, ok := r.errs[spec]; ok {
		r.mu.Unlock()
		return nil, err
	}
	if c, ok := r.inflight[spec]; ok {
		r.stats.CacheHits++
		r.mu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	r.inflight[spec] = c
	r.mu.Unlock()

	r.sem <- struct{}{}
	c.res, c.err = r.execute(spec)
	<-r.sem

	r.mu.Lock()
	if c.err != nil {
		r.errs[spec] = c.err
	} else {
		r.cache[spec] = c.res
	}
	delete(r.inflight, spec)
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// execute runs one spec: through the configured remote executor when one
// is set, locally through the shared job-execution core otherwise.
func (r *Runner) execute(spec RunSpec) (*RunResult, error) {
	r.mu.Lock()
	exec := r.executor
	r.mu.Unlock()
	if exec != nil {
		return exec(spec)
	}
	return r.ExecuteJob(spec, nil)
}

// RunAll executes every spec concurrently and returns results in order.
// Failures do not short-circuit: every spec runs, and all failures come
// back as one errors.Join-ed error with each cause labelled by its spec
// key — a broken grid reports every broken cell, not just the first.
func (r *Runner) RunAll(specs []RunSpec) ([]*RunResult, error) {
	results := make([]*RunResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		//lint:ignore determinism the worker pool sits above the simulated clock: each core simulates in its own goroutine with no shared state, and results land in per-index slots
		go func(i int) {
			defer wg.Done()
			var err error
			results[i], err = r.Run(specs[i])
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", specs[i].Key(), err)
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// budgets returns the normalised warmup/measure instruction budgets: an
// all-zero spec means "default experiment scale".
func (s RunSpec) budgets() (warmup, measure uint64) {
	warmup, measure = s.Warmup, s.Measure
	if warmup == 0 && measure == 0 {
		o := DefaultOptions()
		warmup, measure = o.Warmup, o.Measure
	}
	return warmup, measure
}

// buildConfig derives the generated program and the full core
// configuration for spec: workload profile knobs, the BTB override,
// measure-phase flags, then the policy's configuration hook.
func buildConfig(spec RunSpec) (*cfg.Program, core.Config, error) {
	prof, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return nil, core.Config{}, err
	}
	pol, err := policy.ByName(spec.Policy)
	if err != nil {
		return nil, core.Config{}, err
	}
	prog, err := prof.Program()
	if err != nil {
		return nil, core.Config{}, err
	}

	c := core.DefaultConfig()
	c.Seed = prof.CFG.Seed ^ 0x5eed
	if spec.Seed != 0 {
		// Mix the sweep seed in with an odd multiplier so adjacent seeds
		// (1, 2, 3...) land on well-separated rng stream families. The
		// program itself is untouched: the oracle walk over it and the
		// data-side streams move.
		c.Seed ^= spec.Seed * 0x9e3779b97f4a7c15
	}
	c.MemOpFrac = prof.MemOpFrac
	c.DataHotLines = prof.DataHotLines
	c.DataColdLines = prof.DataColdLines
	c.DataHotFrac = prof.DataHotFrac
	if spec.BTBEntries > 0 {
		c.BPU.BTBEntries = spec.BTBEntries
	}
	c.CollectSets = spec.CollectSets
	c.NoFastForward = spec.NoFastForward
	pol.Apply(&c)
	return prog, c, nil
}

// releasePrefetcher hands the prefetcher that c's policy hook built (for
// pdip44 a 240 KB PDIP table) back to the recycler, for a configuration
// no socket was built on or that a socket left unused: nothing else
// releases it.
func releasePrefetcher(c core.Config) {
	if p, ok := c.Prefetcher.(interface{ Release() }); ok {
		p.Release()
	}
}

// measureRun resets a warmed socket's measurement counters, simulates the
// measured window, and packages one result per tenant — shared by the
// from-scratch and fork-from-snapshot paths, which must agree bit-for-bit
// (TestCheckpointBitIdentical). Only a one-tenant socket samples (see
// newRun); onSample, when non-nil, observes each interval
// snapshot the moment it is recorded (the fabric worker's streaming
// path) and has no effect on the simulation or the result. It stays
// installed for this window only. Results own their samples: the core's
// sample storage is reused by its next window.
func measureRun(s *core.Socket, specs []RunSpec, measure uint64, onSample func(metrics.Sample)) ([]*RunResult, error) {
	s.ResetStats()
	if every := specs[0].SampleEvery; every > 0 {
		co := s.Core(0)
		co.EnableSampling(every)
		if onSample != nil {
			co.SetSampleHook(onSample)
			defer co.SetSampleHook(nil)
		}
	}
	if err := s.Run(measure); err != nil {
		return nil, fmt.Errorf("%s measure: %w", runLabel(specs), err)
	}
	out := make([]*RunResult, len(specs))
	for i, spec := range specs {
		res, snap := s.TenantResult(i)
		out[i] = &RunResult{Spec: spec, Res: res, Metrics: snap,
			Samples: append([]metrics.Sample(nil), s.Core(i).Samples()...)}
	}
	return out, nil
}

// runLabel names a run's specs in error messages.
func runLabel(specs []RunSpec) string {
	keys := make([]string, len(specs))
	for i, spec := range specs {
		keys[i] = spec.Key()
	}
	return strings.Join(keys, "+")
}

// Execute performs one simulation run from scratch, without memoisation
// or warm-state reuse — the reference path that VerifyDeterminism and the
// checkpoint bit-identity tests compare against. It is the one-tenant
// case of ExecuteSocket.
func Execute(spec RunSpec) (*RunResult, error) {
	return first(executeScratch([]RunSpec{spec}, SocketOptions{}, nil, nil))
}

// first is the result of a one-spec run.
func first(res []*RunResult, err error) (*RunResult, error) {
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// executeScratch is the from-scratch executor behind Execute,
// ExecuteSocket and a Runner without a store: one core per spec in
// lockstep against one shared uncore (a single spec is a lone core),
// warmed and then measured. onSample is measureRun's streaming hook;
// report, when set, reads the measured socket before it is released.
func executeScratch(specs []RunSpec, so SocketOptions, onSample func(metrics.Sample), report func(*core.Socket)) ([]*RunResult, error) {
	run, err := newRun(specs, so)
	if err != nil {
		return nil, err
	}
	var res []*RunResult
	if err = run.build(nil); err == nil {
		err = run.warm()
	}
	if err == nil {
		res, err = run.measure(onSample)
	}
	if err == nil && report != nil {
		report(run.s)
	}
	if err = run.finish(err); err != nil {
		return nil, err
	}
	return res, nil
}

// Results returns every memoised result, sorted by spec key — the export
// surface behind `cmd/experiments -metrics`.
func (r *Runner) Results() []*RunResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*RunResult, 0, len(r.cache))
	for _, res := range r.cache {
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].Spec.Key(), out[j].Spec.Key(); a != b {
			return a < b
		}
		return out[i].Spec.Measure < out[j].Spec.Measure
	})
	return out
}

// VerifyDeterminism executes spec twice from scratch (no memoisation) and
// diffs the two full metric snapshots bit-exactly. Any nonzero diff —
// a counter off by one, a derived gauge differing in the last bit — is a
// determinism violation: some state leaked between runs or an unseeded
// source of randomness crept into the simulator. This is the falsifiable
// check every performance PR runs against silent metric drift.
func VerifyDeterminism(spec RunSpec) error {
	a, err := Execute(spec)
	if err != nil {
		return fmt.Errorf("determinism %s: first run: %w", spec.Key(), err)
	}
	b, err := Execute(spec)
	if err != nil {
		return fmt.Errorf("determinism %s: second run: %w", spec.Key(), err)
	}
	if diff := a.Metrics.Diff(b.Metrics); len(diff) > 0 {
		show := diff
		if len(show) > 20 {
			show = show[:20]
		}
		return fmt.Errorf("determinism %s: %d metrics differ between identical runs:\n  %s",
			spec.Key(), len(diff), strings.Join(show, "\n  "))
	}
	if len(a.Samples) != len(b.Samples) {
		return fmt.Errorf("determinism %s: sample counts differ: %d vs %d",
			spec.Key(), len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if diff := a.Samples[i].Metrics.Diff(b.Samples[i].Metrics); len(diff) > 0 {
			return fmt.Errorf("determinism %s: sample %d differs: %s",
				spec.Key(), i, strings.Join(diff[:1], ""))
		}
	}
	return nil
}

// spec builds a RunSpec from options.
func (o Options) spec(bench, pol string) RunSpec {
	s := RunSpec{
		Benchmark:         bench,
		Policy:            pol,
		Warmup:            o.Warmup,
		Measure:           o.Measure,
		NoFastForward:     o.NoFastForward,
		TraceDifferential: o.TraceDifferential,
	}
	if o.TraceDir != "" {
		s.TracePath = TracePathFor(o.TraceDir, bench)
	}
	return s
}
