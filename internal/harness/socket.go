package harness

import (
	"fmt"

	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/metrics"
	"pdip/internal/trace/champsim"
)

// SocketOptions sets socket-wide policy for a multi-tenant run. Its
// fields are core.SocketConfig's, which it converts to.
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
	out := &SocketRunResult{}
	var err error
	out.Tenants, err = executeScratch(specs, so, nil, func(s *core.Socket) {
		out.Interference, out.Combined, out.Cycles = s.InterferenceSnapshot(), s.CombinedSnapshot(), s.Cycles()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// socketRun is one run the harness executes — from scratch, a warmup
// that fills a store, or a fork from a stored state: its specs, one
// tenant per spec (program, configuration and trace source), and, once
// built, their socket. newRun configures it, build makes its socket,
// warm and measure simulate its windows, and finish ends it.
type socketRun struct {
	specs   []RunSpec
	sc      core.SocketConfig
	tenants []core.SocketTenant
	srcs    []*champsim.Source
	s       *core.Socket
}

// newRun configures a run of specs, each tenant with a fresh
// configuration (and with it a fresh prefetcher) and a fresh trace
// source. Every spec must carry the same Warmup/Measure budgets — the
// socket warms and measures all tenants over one shared clock — and
// sampling needs a single spec: a tenant frozen at its quota while
// co-tenants run on has no defined sample stream. On error nothing is
// held.
func newRun(specs []RunSpec, so SocketOptions) (*socketRun, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("socket: need at least one spec")
	}
	warmup, measure := specs[0].budgets()
	for i, spec := range specs {
		w, m := spec.budgets()
		if w != warmup || m != measure {
			return nil, fmt.Errorf("socket: tenant %d budgets %d+%d differ from tenant 0's %d+%d (one shared clock, one shared window)",
				i, w, m, warmup, measure)
		}
		if spec.SampleEvery > 0 && len(specs) > 1 {
			return nil, fmt.Errorf("socket: tenant %d: sampling needs a single-tenant run", i)
		}
	}
	run := &socketRun{specs: specs, sc: core.SocketConfig(so), srcs: make([]*champsim.Source, len(specs))}
	for i, spec := range specs {
		prog, c, err := buildConfig(spec)
		if err != nil {
			return nil, run.finish(err)
		}
		run.tenants = append(run.tenants, core.SocketTenant{Prog: prog, Config: c})
		if run.srcs[i], run.tenants[i].Src, err = openSource(spec, prog, c); err != nil {
			return nil, run.finish(err)
		}
	}
	return run, nil
}

// build makes the run's socket, the one place the harness builds one:
// from scratch when st is nil, otherwise restored from the warm state st
// (a fork).
func (run *socketRun) build(st *checkpoint.State) (err error) {
	if st == nil {
		run.s, err = core.NewSocket(run.tenants, run.sc)
	} else if run.s, err = core.NewSocketFromSnapshot(run.tenants, run.sc, st); err != nil {
		err = fmt.Errorf("%s fork: %w", runLabel(run.specs), err)
	}
	if err == nil && run.sc.SharedPrefetcher {
		// Every tenant runs on tenant 0's table; the others' go back.
		for _, t := range run.tenants[1:] {
			releasePrefetcher(t.Config)
		}
	}
	return err
}

// warm simulates the warmup window the run's specs share.
func (run *socketRun) warm() error {
	warmup, _ := run.specs[0].budgets()
	if err := run.s.Run(warmup); err != nil {
		return fmt.Errorf("%s warmup: %w", runLabel(run.specs), err)
	}
	return nil
}

// measure simulates the run's measured window (measureRun).
func (run *socketRun) measure(onSample func(metrics.Sample)) ([]*RunResult, error) {
	_, measure := run.specs[0].budgets()
	return measureRun(run.s, run.specs, measure, onSample)
}

// finish ends the run, whatever phase it reached, and returns its error:
// err, or when err is nil a divergence or stream fault a trace source
// latched. It closes the trace sources and hands the socket's tables back
// to the recycler — or, when no socket was built, the prefetchers the
// configurations made, which nothing else releases.
func (run *socketRun) finish(err error) error {
	for i, src := range run.srcs {
		if src == nil {
			continue
		}
		if e := src.Err(); e != nil && err == nil {
			err = fmt.Errorf("%s: %w", run.specs[i].Key(), e)
		}
		src.Close()
	}
	if run.s != nil {
		run.s.Release()
	} else {
		for _, t := range run.tenants {
			releasePrefetcher(t.Config)
		}
	}
	return err
}
