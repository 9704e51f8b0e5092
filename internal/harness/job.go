package harness

import (
	"fmt"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/metrics"
	"pdip/internal/workload"
)

// ExecuteJob is the job-execution core shared by the local Runner and the
// fabric worker: it configures spec's fork, resolves spec's warm state
// through the runner's store (decoded states in memory, then the
// content-addressed -checkpoint-dir files, then a simulated warmup),
// forks it, and simulates the measured window. A runner without a store,
// and a spec without a warmup window, take Execute's path instead: warm
// and measure on one socket, with no snapshot. onSample, when non-nil and
// spec.SampleEvery > 0, observes every interval snapshot the moment it is
// recorded — the hook fabric workers use to stream incremental metrics
// back to the coordinator while the run is still in flight.
//
// ExecuteJob is idempotent by construction: the simulator is
// deterministic and warm forks are bit-identical to scratch runs
// (TestCheckpointBitIdentical), so re-executing a job — on another
// worker, after a lease expiry, against a warm disk checkpoint instead of
// a fresh warmup — produces the same result bit for bit. That property is
// what lets the fabric coordinator re-queue lost jobs without any
// output-merge ambiguity.
func (r *Runner) ExecuteJob(spec RunSpec, onSample func(metrics.Sample)) (*RunResult, error) {
	r.mu.Lock()
	r.stats.RunsExecuted++
	r.mu.Unlock()

	if warmup, _ := spec.budgets(); warmup == 0 || r.ck == nil {
		// Nothing to amortize, or no store to keep a warm state in: warm
		// and measure on one socket, as Execute does.
		return first(executeScratch([]RunSpec{spec}, SocketOptions{}, onSample, nil))
	}
	run, err := newRun([]RunSpec{spec}, SocketOptions{})
	if err != nil {
		return nil, err
	}
	st, err := r.resolve(spec, run.tenants[0].Config)
	if err == nil {
		err = run.build(st)
	}
	var res []*RunResult
	if err == nil {
		r.mu.Lock()
		r.stats.Checkpoint.Forks++
		r.mu.Unlock()
		res, err = run.measure(onSample)
	}
	return first(res, run.finish(err))
}

// resolve returns spec's warm state from the runner's store, which
// settles each warm state once however many callers ask
// (checkpoint.Dir.Resolve): from memory, from its file, or by simulating
// the warmup. c is the configuration of spec's fork; the first
// resolution of spec's warm spec hashes it into the store key, which the
// runner then keeps.
func (r *Runner) resolve(spec RunSpec, c core.Config) (*checkpoint.State, error) {
	wspec := spec.warmSpec()
	r.mu.Lock()
	key, seen := r.keys[wspec]
	r.mu.Unlock()
	// The store content-addresses the workload and configuration, not the
	// bytes of an arbitrary trace file, so a trace-driven warm state is
	// named by its tuple and stays in memory.
	persist := wspec.TracePath == ""
	if !seen {
		key = wspec.WarmTuple()
		if persist {
			var err error
			if key, err = diskKey(wspec, c); err != nil {
				return nil, err
			}
		}
	}
	st, how, err := r.ck.Resolve(key, persist, func() (*checkpoint.State, error) { return warmup(wspec) })
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[wspec] = key
	ck := &r.stats.Checkpoint
	switch how {
	case checkpoint.Cached:
		if seen {
			ck.MemoryHits++
		} else {
			ck.DirCacheHits++
		}
	case checkpoint.Read:
		ck.DiskHits++
	case checkpoint.Warmed:
		ck.WarmupsExecuted++
	case checkpoint.Stored:
		ck.WarmupsExecuted++
		ck.DiskStores++
	case checkpoint.StoreFailed:
		ck.WarmupsExecuted++
		ck.DiskStoreFailures++
	}
	return st, nil
}

// warmup simulates the warm spec wspec's warmup window on a socket of its
// own and snapshots it: the warm state a store keeps for wspec. The
// snapshot is a clone, so the socket's tables go to the next build
// (internal/recycle).
func warmup(wspec RunSpec) (*checkpoint.State, error) {
	run, err := newRun([]RunSpec{wspec}, SocketOptions{})
	if err != nil {
		return nil, err
	}
	var st *checkpoint.State
	if err = run.build(nil); err == nil {
		err = run.warm()
	}
	if err == nil {
		if st, err = run.s.Snapshot(); err != nil {
			err = fmt.Errorf("%s snapshot: %w", wspec.Key(), err)
		}
	}
	if err = run.finish(err); err != nil {
		return nil, err
	}
	return st, nil
}

// diskKey content-addresses the warm state of the warm spec wspec, c being
// the configuration of a spec that forks it. The hash covers the format
// version, the benchmark's workload parameters (which generate the
// program), and the complete derived core configuration with the
// measure-phase CollectSets off, as wspec's warmup runs it — so any change
// to a policy, a profile, or the state format misses cleanly instead of
// restoring a stale checkpoint. The prefetcher instance is stripped: its
// identity is already pinned by the policy name and the config knobs.
func diskKey(wspec RunSpec, c core.Config) (string, error) {
	prof, err := workload.ByName(wspec.Benchmark)
	if err != nil {
		return "", err
	}
	c.Prefetcher, c.CollectSets = nil, false
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
