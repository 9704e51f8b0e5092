package harness

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pdip/internal/checkpoint"
)

// forkEquals runs spec through the runner's warm-fork path and through
// the from-scratch reference path, and requires bit-identical metrics.
func forkEquals(t *testing.T, r *Runner, spec RunSpec) {
	t.Helper()
	forked, err := r.Run(spec)
	if err != nil {
		t.Fatalf("warm-fork run: %v", err)
	}
	scratch, err := Execute(spec)
	if err != nil {
		t.Fatalf("scratch run: %v", err)
	}
	if diff := forked.Metrics.Diff(scratch.Metrics); len(diff) > 0 {
		show := diff
		if len(show) > 20 {
			show = show[:20]
		}
		t.Errorf("%d metrics differ between warm-fork and from-scratch execution:\n  %s",
			len(diff), strings.Join(show, "\n  "))
	}
	if len(forked.Samples) != len(scratch.Samples) {
		t.Fatalf("sample counts differ: %d (fork) vs %d (scratch)", len(forked.Samples), len(scratch.Samples))
	}
	for i := range forked.Samples {
		if diff := forked.Samples[i].Metrics.Diff(scratch.Samples[i].Metrics); len(diff) > 0 {
			t.Errorf("sample %d differs between warm-fork and from-scratch execution: %s",
				i, strings.Join(diff[:1], ""))
		}
	}
}

// TestCheckpointBitIdentical holds the warm-fork path to the simulator's
// core contract: restoring a warm snapshot and measuring must be
// bit-identical to warming up from scratch — over the golden grid, with
// and without idle-cycle fast-forward, and for measure-phase knob
// variants (sampling, coverage sets) forked from the same warm state.
func TestCheckpointBitIdentical(t *testing.T) {
	r := NewRunner(0)
	for _, base := range goldenSpecs() {
		for _, noFF := range []bool{false, true} {
			spec := base
			spec.NoFastForward = noFF
			name := spec.Key()
			if noFF {
				name += "/no-fast-forward"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				forkEquals(t, r, spec)
			})
		}
	}
	// Measure-phase variants share the warm tuple with the plain spec
	// above, so these forks reuse a warm state produced under different
	// measure knobs — the exact reuse the checkpoint layer exists for.
	variant := goldenSpecs()[0]
	variant.CollectSets = true
	variant.SampleEvery = 50_000
	t.Run(variant.Key()+"/collect-sets+sampling", func(t *testing.T) {
		t.Parallel()
		forkEquals(t, r, variant)
	})
	// A seeded spec is its own warm tuple: the warmup must run under the
	// seed, or the fork measures a seed-0 machine.
	seeded := goldenSpecs()[0]
	seeded.Seed = 5
	t.Run(seeded.Key(), func(t *testing.T) {
		t.Parallel()
		forkEquals(t, r, seeded)
	})
}

// TestRunSingleflight submits the same spec from many goroutines at once
// and requires exactly one execution: one simulated warmup, one fork. The
// pre-singleflight Runner would run the spec once per goroutine that got
// past the cache check before the first finished.
func TestRunSingleflight(t *testing.T) {
	r := NewRunner(4)
	o := QuickOptions()
	spec := o.spec("cassandra", "baseline")
	const waiters = 16
	results := make([]*RunResult, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		//lint:ignore determinism concurrency harness above the simulated clock; each goroutine only reads the shared runner
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(spec)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d received a different result object — the run executed more than once", i)
		}
	}
	s := r.CheckpointStats()
	if s.WarmupsExecuted != 1 || s.Forks != 1 {
		t.Errorf("singleflight leak: %d warmups and %d forks for %d concurrent submissions of one spec (want 1 and 1)",
			s.WarmupsExecuted, s.Forks, waiters)
	}
}

// TestWarmStateSharedAcrossSpecs runs a grid of specs that differ only in
// measure-phase knobs and requires a single warmup to serve all of them.
func TestWarmStateSharedAcrossSpecs(t *testing.T) {
	r := NewRunner(2)
	o := QuickOptions()
	base := o.spec("tomcat", "pdip44")
	specs := []RunSpec{base}
	for _, d := range []uint64{1, 2, 3} {
		s := base
		s.Measure = base.Measure + d // distinct spec, same warm tuple
		specs = append(specs, s)
	}
	if _, err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	s := r.CheckpointStats()
	if s.WarmupsExecuted != 1 {
		t.Errorf("%d warmups executed for %d specs sharing one warm tuple (want 1)", s.WarmupsExecuted, len(specs))
	}
	if s.Forks != uint64(len(specs)) {
		t.Errorf("%d forks for %d specs (want one fork per spec)", s.Forks, len(specs))
	}
}

// TestCheckpointDiskCache exercises the cross-process path: a second
// runner pointed at the same -checkpoint-dir must restore the warm state
// from disk (no warmup simulated) and still produce bit-identical results.
func TestCheckpointDiskCache(t *testing.T) {
	dir := t.TempDir()
	o := QuickOptions()
	spec := o.spec("kafka", "eip46")

	r1 := NewRunnerWithCheckpoints(2, dir)
	a, err := r1.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := r1.CheckpointStats(); s.WarmupsExecuted != 1 || s.DiskStores != 1 || s.DiskHits != 0 {
		t.Errorf("cold-cache runner: %+v (want 1 warmup, 1 store, 0 hits)", s)
	}

	r2 := NewRunnerWithCheckpoints(2, dir)
	b, err := r2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := r2.CheckpointStats(); s.WarmupsExecuted != 0 || s.DiskHits != 1 {
		t.Errorf("warm-cache runner: %+v (want 0 warmups, 1 disk hit)", s)
	}
	if diff := a.Metrics.Diff(b.Metrics); len(diff) > 0 {
		t.Errorf("%d metrics differ between simulated-warmup and disk-restored runs:\n  %s",
			len(diff), strings.Join(diff[:min(len(diff), 20)], "\n  "))
	}

	// A different warm tuple must miss: the content address covers the
	// configuration, so a changed knob can never restore a stale state.
	for i, change := range []func(*RunSpec){
		func(s *RunSpec) { s.Warmup += 1000 },
		func(s *RunSpec) { s.Seed = 3 },
	} {
		other := spec
		change(&other)
		if _, err := r2.Run(other); err != nil {
			t.Fatal(err)
		}
		if s := r2.CheckpointStats(); s.WarmupsExecuted != uint64(i+1) || s.DiskStores != uint64(i+1) {
			t.Errorf("%s: changed-tuple runner: %+v (want the changed tuple to warm and store fresh)", other.Key(), s)
		}
	}
}

// TestCheckpointSharedDirCache exercises the in-process layer the fleet
// relies on: runners sharing one checkpoint.Dir must serve each other's
// warm states from the store's decoded-state cache — counted as
// DirCacheHits, with the disk never re-read — and stay bit-identical.
func TestCheckpointSharedDirCache(t *testing.T) {
	ck := checkpoint.NewDir(t.TempDir(), 0)
	o := QuickOptions()
	spec := o.spec("kafka", "eip46")

	r1 := NewRunnerWithDir(2, ck)
	a, err := r1.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := r1.CheckpointStats(); s.WarmupsExecuted != 1 || s.DiskStores != 1 || s.DirCacheHits != 0 {
		t.Errorf("warming runner: %+v (want 1 warmup, 1 store, 0 cache forks)", s)
	}

	r2 := NewRunnerWithDir(2, ck)
	b, err := r2.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := r2.CheckpointStats(); s.WarmupsExecuted != 0 || s.DirCacheHits != 1 || s.DiskHits != 0 {
		t.Errorf("sibling runner: %+v (want 0 warmups, 1 cache fork, 0 disk hits)", s)
	}
	if diff := a.Metrics.Diff(b.Metrics); len(diff) > 0 {
		t.Errorf("%d metrics differ between simulated-warmup and cache-forked runs:\n  %s",
			len(diff), strings.Join(diff[:min(len(diff), 20)], "\n  "))
	}
	if ds := ck.Stats(); ds.CacheHits != 1 || ds.Stores != 1 {
		t.Errorf("store stats: %+v (want the sibling's load counted as a cache hit)", ds)
	}

	// The aggregate report the fabric coordinator builds must carry the
	// new counter through RunnerStats.Add.
	sum := r1.Stats()
	sum.Add(r2.Stats())
	if sum.Checkpoint.DirCacheHits != 1 || sum.Checkpoint.WarmupsExecuted != 1 {
		t.Errorf("aggregated stats: %+v (want the cache fork to survive aggregation)", sum.Checkpoint)
	}
}

// TestCheckpointSaveFailureForks holds the store to being a cache: a warm
// state that cannot be saved (the store sits below a regular file) must
// not fail the run, nor poison the tuple for later specs once the store
// is writable again. Both runs fork the simulated state, equal Execute,
// and the failed save is counted.
func TestCheckpointSaveFailureForks(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWithCheckpoints(1, filepath.Join(blocker, "ck"))
	spec := RunSpec{Benchmark: "kafka", Policy: "baseline", Warmup: 20_000, Measure: 20_000}
	forkEquals(t, r, spec)
	if s := r.CheckpointStats(); s.WarmupsExecuted != 1 || s.DiskStores != 0 || s.DiskStoreFailures != 1 {
		t.Errorf("after the failed save: %+v (want 1 warmup, 0 stores, 1 failed store)", s)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	spec.Measure = 30_000
	forkEquals(t, r, spec)
	if s := r.CheckpointStats(); s.WarmupsExecuted != 1 || s.Forks != 2 {
		t.Errorf("same tuple after the store recovered: %+v (want the memoised warm state forked again)", s)
	}
}

// TestMemoryOnlyRunnerBounded drives a Runner without a checkpoint
// directory through more distinct warm tuples than its memory-only store
// holds: the store must stay within its budget after every run, and a
// tuple whose warm state was evicted must warm again and still fork
// bit-identically to a scratch run.
func TestMemoryOnlyRunnerBounded(t *testing.T) {
	r := NewRunner(1)
	ck := r.CheckpointDir()
	if ck.Path() != "" {
		t.Fatalf("a Runner without a directory stores under %q", ck.Path())
	}
	spec := func(i int) RunSpec {
		return RunSpec{Benchmark: "kafka", Policy: "baseline", Warmup: 10_000 + uint64(i)*1_000, Measure: 5_000}
	}
	tuples := 0
	for i := 0; ; i++ {
		if _, err := r.Run(spec(i)); err != nil {
			t.Fatal(err)
		}
		n, bytes := ck.Resident()
		if bytes > memoryCacheBytes {
			t.Fatalf("after %d tuples the store holds %d states of %d bytes, over its %d-byte budget", i+1, n, bytes, memoryCacheBytes)
		}
		if tuples = i + 1; n < tuples {
			break // the first tuple has been evicted
		}
	}
	if s := ck.Stats(); s.Evictions == 0 {
		t.Fatalf("%d tuples evicted nothing: %+v", tuples, s)
	}
	again := spec(0)
	again.Measure = 6_000 // a new spec on the evicted tuple
	forkEquals(t, r, again)
	if s := r.CheckpointStats(); s.WarmupsExecuted != uint64(tuples)+1 || s.MemoryHits != 0 || s.DiskStores != 0 {
		t.Errorf("after re-forking an evicted tuple: %+v (want %d warmups, no memory hits, no disk stores)", s, tuples+1)
	}
	again.Measure = 7_000 // and once more, now from memory
	forkEquals(t, r, again)
	if s := r.CheckpointStats(); s.WarmupsExecuted != uint64(tuples)+1 || s.MemoryHits != 1 {
		t.Errorf("repeat fork of a resident tuple: %+v (want it served from memory)", s)
	}
}
