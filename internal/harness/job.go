package harness

import (
	"fmt"

	"pdip/internal/core"
	"pdip/internal/metrics"
)

// ExecuteJob is the job-execution core shared by the local Runner and the
// fabric worker: it resolves spec's warm state through the runner's
// warm-state layer (a warmup in flight, then the runner's checkpoint.Dir
// — decoded states in memory, then the content-addressed -checkpoint-dir
// files — then a simulated warmup), forks it, and simulates the measured
// window. onSample, when non-nil and spec.SampleEvery > 0,
// observes every interval snapshot the moment it is recorded — the hook
// fabric workers use to stream incremental metrics back to the
// coordinator while the run is still in flight.
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

	warmup, measure := spec.budgets()
	if warmup == 0 {
		// Nothing to amortize; run from scratch.
		return executeOne(spec, onSample)
	}
	st, err := r.warmState(warmKeyOf(spec))
	if err != nil {
		return nil, err
	}
	prog, c, err := buildConfig(spec)
	if err != nil {
		return nil, err
	}
	src, osrc, err := openSource(spec, prog, c)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSocketFromSnapshot([]core.SocketTenant{{Prog: prog, Src: osrc, Config: c}}, core.SocketConfig{}, st)
	if err != nil {
		closeSource(src)
		return nil, fmt.Errorf("%s fork: %w", spec.Key(), err)
	}
	// The result owns everything it holds, so the fork's tables go to the
	// next build (internal/recycle) once it is measured.
	defer s.Release()
	r.mu.Lock()
	r.ckStats.Forks++
	r.mu.Unlock()
	res, err := measureRun(s, []RunSpec{spec}, measure, onSample)
	if err != nil {
		closeSource(src)
		return nil, err
	}
	return finishSource(spec, src, res[0], nil)
}
