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
	"pdip/internal/trace/champsim"
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

// warmKey identifies one warm simulator state: everything that influences
// the machine's state at the end of warmup. Specs differing only in
// measure-phase knobs (Measure, SampleEvery, CollectSets) share a key —
// and therefore share one warmup.
type warmKey struct {
	Benchmark, Policy string
	BTBEntries        int
	Seed              uint64
	Warmup            uint64
	NoFastForward     bool
	TracePath         string
	TraceDifferential bool
}

// warmKeyOf projects spec onto its warm-state identity, normalising the
// instruction budgets first.
func warmKeyOf(spec RunSpec) warmKey {
	warmup, _ := spec.budgets()
	return warmKey{
		Benchmark:         spec.Benchmark,
		Policy:            spec.Policy,
		BTBEntries:        spec.BTBEntries,
		Seed:              spec.Seed,
		Warmup:            warmup,
		NoFastForward:     spec.NoFastForward,
		TracePath:         spec.TracePath,
		TraceDifferential: spec.TraceDifferential,
	}
}

// WarmTuple renders the spec's warm-state identity as a stable string, or
// "" when the spec has no warmup phase and therefore nothing to share.
// Specs with equal tuples fork the same warm state, so a scheduler (the
// fabric coordinator) can warm each tuple once cluster-wide and hold the
// tuple's remaining jobs back until the warm checkpoint exists.
func (s RunSpec) WarmTuple() string {
	warmup, _ := s.budgets()
	if warmup == 0 {
		return ""
	}
	return fmt.Sprintf("%v", warmKeyOf(s))
}

// warmCall is one in-flight warmup, singleflighted per warmKey. A
// finished warm state lives in the Runner's checkpoint.Dir, not here.
type warmCall struct {
	done chan struct{}
	st   *checkpoint.State
	err  error
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
	// resolved, found decoded in its checkpoint.Dir, and singleflight
	// waiters who blocked on a leader's warmup.
	MemoryHits uint64
	// DirCacheHits counts a runner's first resolution of a tuple served
	// already-decoded from its checkpoint.Dir — no disk read, no decode.
	// With several runners sharing one Dir (fleet workers), these are
	// forks that skipped the disk entirely because a sibling had already
	// paid for the warmup or the decode.
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
// it warms each warmKey tuple once (per process — or per checkpoint
// directory, when the store has one), snapshots the complete simulator
// state, and forks the snapshot for every spec that shares the tuple.
// Finished warm states live in one place, the store, whose LRU bounds
// their memory. A Runner without a store warms and measures every spec on
// one socket, as Execute does, and snapshots nothing.
type Runner struct {
	mu       sync.Mutex
	cache    map[RunSpec]*RunResult
	errs     map[RunSpec]error
	inflight map[RunSpec]*call
	// warm holds the in-flight warmups; keys holds the store key of every
	// tuple this runner resolved, so a repeat fork neither rebuilds the
	// configuration nor re-hashes it.
	warm  map[warmKey]*warmCall
	keys  map[warmKey]string
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
		warm:     make(map[warmKey]*warmCall),
		keys:     make(map[warmKey]string),
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

// warmState returns the warm simulator state for wk, singleflighting the
// warmup: the first caller builds (or loads) it, concurrent callers block
// on the result, later callers find it in the Dir's memory by the key the
// first one remembered — unless the Dir evicted it, and then it is
// resolved again.
func (r *Runner) warmState(wk warmKey) (*checkpoint.State, error) {
	r.mu.Lock()
	if c, ok := r.warm[wk]; ok {
		r.stats.Checkpoint.MemoryHits++
		r.mu.Unlock()
		<-c.done
		return c.st, c.err
	}
	key := r.keys[wk]
	if key != "" {
		if st := r.ck.Get(key); st != nil {
			r.stats.Checkpoint.MemoryHits++
			r.mu.Unlock()
			return st, nil
		}
	}
	c := &warmCall{done: make(chan struct{})}
	r.warm[wk] = c
	r.mu.Unlock()

	c.st, key, c.err = r.buildWarmState(wk, key)
	r.mu.Lock()
	delete(r.warm, wk)
	if c.err == nil {
		r.keys[wk] = key
	}
	r.mu.Unlock()
	close(c.done)
	return c.st, c.err
}

// buildWarmState produces wk's warm state and its store key (key, when
// known from an earlier resolution): from the Dir when it holds the
// state, otherwise by simulating the warmup window on a fresh core and
// snapshotting it into the Dir.
func (r *Runner) buildWarmState(wk warmKey, key string) (*checkpoint.State, string, error) {
	// Warm with measure-phase knobs off: CollectSets has no timing effect
	// and its sets are cleared at the measurement boundary anyway, so the
	// cheapest configuration warms for all of them.
	wspec := RunSpec{
		Benchmark:         wk.Benchmark,
		Policy:            wk.Policy,
		BTBEntries:        wk.BTBEntries,
		Seed:              wk.Seed,
		Warmup:            wk.Warmup,
		NoFastForward:     wk.NoFastForward,
		TracePath:         wk.TracePath,
		TraceDifferential: wk.TraceDifferential,
	}
	prog, c, err := buildConfig(wspec)
	if err != nil {
		return nil, "", err
	}

	// The on-disk cache content-addresses the workload parameters and
	// configuration, not the bytes of an arbitrary trace file, so
	// trace-driven warm states are named by their tuple and stay in
	// memory only.
	var st *checkpoint.State
	cached := true
	if wspec.TracePath != "" {
		key = wspec.WarmTuple()
		st = r.ck.Get(key)
	} else {
		if key == "" {
			if key, err = diskKey(wspec, c); err != nil {
				return nil, "", err
			}
		}
		st, cached, _ = r.ck.Load(key)
	}
	if st != nil {
		releasePrefetcher(c)
		r.mu.Lock()
		if cached {
			r.stats.Checkpoint.DirCacheHits++
		} else {
			r.stats.Checkpoint.DiskHits++
		}
		r.mu.Unlock()
		return st, key, nil
	}

	src, osrc, err := openSource(wspec, prog, c)
	if err != nil {
		releasePrefetcher(c)
		return nil, "", err
	}
	defer closeSource(src)
	co, err := core.NewWithSource(prog, osrc, c)
	if err != nil {
		releasePrefetcher(c)
		return nil, "", err
	}
	st, err = warmSnapshot(co, wspec, src)
	// The snapshot is a clone: the warm socket's tables go to the next
	// build (internal/recycle).
	co.Release()
	if err != nil {
		return nil, "", err
	}
	r.mu.Lock()
	r.stats.Checkpoint.WarmupsExecuted++
	r.mu.Unlock()

	if r.ck.Path() != "" && wspec.TracePath == "" {
		// The store is a cache: a failed save costs a later process its
		// warmup, never this run, which forks the state just simulated
		// and keeps it in memory.
		err := r.ck.Save(key, st)
		r.mu.Lock()
		if err != nil {
			r.stats.Checkpoint.DiskStoreFailures++
		} else {
			r.stats.Checkpoint.DiskStores++
		}
		r.mu.Unlock()
		if err == nil {
			return st, key, nil
		}
	}
	r.ck.Put(key, st)
	return st, key, nil
}

// warmSnapshot simulates wspec's warmup window on co and snapshots it.
func warmSnapshot(co *core.Core, wspec RunSpec, src *champsim.Source) (*checkpoint.State, error) {
	if err := co.Run(wspec.Warmup); err != nil {
		return nil, fmt.Errorf("%s/%s warmup: %w", wspec.Benchmark, wspec.Policy, err)
	}
	if err := sourceErr(wspec, src); err != nil {
		return nil, err
	}
	st, err := co.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("%s/%s snapshot: %w", wspec.Benchmark, wspec.Policy, err)
	}
	return st, nil
}

// diskKey content-addresses wspec's warm state. The hash covers the
// format version, the benchmark's workload parameters (which generate the
// program), and the complete derived core configuration — so any change
// to a policy, a profile, or the state format misses cleanly instead of
// restoring a stale checkpoint. The prefetcher instance is stripped: its
// identity is already pinned by the policy name and the config knobs.
func diskKey(wspec RunSpec, c core.Config) (string, error) {
	prof, err := workload.ByName(wspec.Benchmark)
	if err != nil {
		return "", err
	}
	c.Prefetcher = nil
	return checkpoint.Key(struct {
		Version   int
		Benchmark string
		Policy    string
		Warmup    uint64
		Workload  cfg.Params
		Config    core.Config
	}{
		Version:   checkpoint.FormatVersion,
		Benchmark: wspec.Benchmark,
		Policy:    wspec.Policy,
		Warmup:    wspec.Warmup,
		Workload:  prof.CFG,
		Config:    c,
	})
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
// executeScratch); onSample, when non-nil, observes each interval
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
	return executeOne(spec, nil)
}

// executeOne is Execute with measureRun's streaming-sample hook exposed.
func executeOne(spec RunSpec, onSample func(metrics.Sample)) (*RunResult, error) {
	res, s, err := executeScratch([]RunSpec{spec}, SocketOptions{}, onSample)
	if err != nil {
		return nil, err
	}
	s.Release()
	return res[0], nil
}

// executeScratch is the from-scratch executor behind Execute and
// ExecuteSocket: one core per spec in lockstep against one shared uncore
// (a single spec is a lone core), warmed and then measured. Every spec
// must carry the same Warmup/Measure budgets — the socket warms and
// measures all tenants over one shared clock. Sampling needs a single
// spec: a tenant frozen at its quota while co-tenants run on has no
// defined sample stream. onSample is measureRun's streaming hook. The
// caller releases the returned socket; on error it is already released.
func executeScratch(specs []RunSpec, so SocketOptions, onSample func(metrics.Sample)) ([]*RunResult, *core.Socket, error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("socket: need at least one spec")
	}
	warmup, measure := specs[0].budgets()
	for i, spec := range specs {
		w, m := spec.budgets()
		if w != warmup || m != measure {
			return nil, nil, fmt.Errorf("socket: tenant %d budgets %d+%d differ from tenant 0's %d+%d (one shared clock, one shared window)",
				i, w, m, warmup, measure)
		}
		if spec.SampleEvery > 0 && len(specs) > 1 {
			return nil, nil, fmt.Errorf("socket: tenant %d: sampling needs a single-tenant run", i)
		}
	}

	tenants := make([]core.SocketTenant, 0, len(specs))
	srcs := make([]*champsim.Source, len(specs))
	closeAll := func() {
		for _, src := range srcs {
			closeSource(src)
		}
	}
	// unbuilt undoes the tenants configured before an error: no socket
	// holds their prefetchers or sources.
	unbuilt := func(err error) ([]*RunResult, *core.Socket, error) {
		for _, t := range tenants {
			releasePrefetcher(t.Config)
		}
		closeAll()
		return nil, nil, err
	}
	for i, spec := range specs {
		prog, c, err := buildConfig(spec)
		if err != nil {
			return unbuilt(err)
		}
		src, osrc, err := openSource(spec, prog, c)
		if err != nil {
			releasePrefetcher(c)
			return unbuilt(err)
		}
		srcs[i] = src
		tenants = append(tenants, core.SocketTenant{Prog: prog, Src: osrc, Config: c})
	}
	s, err := core.NewSocket(tenants, core.SocketConfig{
		SharedPrefetcher: so.SharedPrefetcher,
		L2Reserve:        so.L2Reserve,
		L3Reserve:        so.L3Reserve,
	})
	if err != nil {
		return unbuilt(err)
	}
	if so.SharedPrefetcher {
		// Every tenant runs on tenant 0's table; the others' go back.
		for _, t := range tenants[1:] {
			releasePrefetcher(t.Config)
		}
	}
	if err := s.Run(warmup); err != nil {
		s.Release()
		closeAll()
		return nil, nil, fmt.Errorf("%s warmup: %w", runLabel(specs), err)
	}
	res, err := measureRun(s, specs, measure, onSample)
	if err != nil {
		s.Release()
		closeAll()
		return nil, nil, err
	}
	for i, spec := range specs {
		res[i], err = finishSource(spec, srcs[i], res[i], nil)
		srcs[i] = nil // finishSource closed it
		if err != nil {
			s.Release()
			closeAll()
			return nil, nil, err
		}
	}
	return res, s, nil
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
