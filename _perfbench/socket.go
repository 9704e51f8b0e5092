package main

import (
	"fmt"
	"math"

	"pdip/internal/core"
	"pdip/internal/harness"
	"pdip/internal/metrics"
)

// socketCorun runs two-tenant sockets through harness.ExecuteSocket, from
// scratch: benchmark pairs × {baseline, pdip44} × {per-core, shared PDIP
// table}. Two cores step in lockstep against the shared, owner-tracked
// uncore, load the single-core path never applies; the checkpoint store
// and fabric are bypassed. Sockets run one at a time: with two in flight
// on a two-CPU host, throughput moved by a quarter between identical runs.
//
// Every tenant carries a nonzero RunSpec.Seed, which this path honours.
// Each pass over the grid draws it from the workload seed, so one run
// averages several seeds' data-side behaviour instead of resting on one.
type socketCorun struct {
	benches []string
}

// socketCell is one ExecuteSocket call.
type socketCell struct {
	specs []harness.RunSpec
	so    harness.SocketOptions
}

func (c socketCell) key() string {
	return fmt.Sprintf("%s+%s shared=%v", c.specs[0].Key(), c.specs[1].Key(), c.so.SharedPrefetcher)
}

// socketPairs pairs up all 16 benchmarks, each once, so that a pass
// averages over the whole suite.
var socketPairs = [][2]string{
	{"cassandra", "tomcat"},
	{"kafka", "xalan"},
	{"finagle-http", "dotty"},
	{"tpcc", "ycsb"},
	{"twitter", "voter"},
	{"smallbank", "tatp"},
	{"sibench", "noop"},
	{"verilator", "speedometer2.0"},
}

const (
	socketWarmup  = 10_000
	socketMeasure = 25_000
	socketVerify  = 3
)

func (s *socketCorun) init() {
	for _, pair := range socketPairs {
		s.benches = append(s.benches, pair[0], pair[1])
	}
}

// grid lists one pass's cells, every tenant at the pass's seed.
func (s *socketCorun) grid(b *bench, pass int) []socketCell {
	seed := b.seed*1000 + uint64(pass) + 1
	var cells []socketCell
	for _, pair := range socketPairs {
		for _, pol := range []string{"baseline", "pdip44"} {
			for _, shared := range []bool{false, true} {
				cell := socketCell{so: harness.SocketOptions{SharedPrefetcher: shared}}
				for _, bn := range pair {
					cell.specs = append(cell.specs, harness.RunSpec{
						Benchmark: bn, Policy: pol,
						Warmup: socketWarmup, Measure: socketMeasure, Seed: seed,
					})
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// exec runs one cell and checks every tenant retired its budget.
func (s *socketCorun) exec(c socketCell) (*harness.SocketRunResult, error) {
	res, err := harness.ExecuteSocket(c.specs, c.so)
	if err != nil {
		return nil, err
	}
	for i, spec := range c.specs {
		if err := checkCell(spec, res.Tenants[i]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sameSocket reports how got differs from want, tenant by tenant and in
// the shared uncore's counters; "" when identical.
func sameSocket(got, want *harness.SocketRunResult) string {
	for i := range want.Tenants {
		if d := got.Tenants[i].Metrics.Diff(want.Tenants[i].Metrics); len(d) > 0 {
			return fmt.Sprintf("tenant %d: %d metrics differ, first %s", i, len(d), d[0])
		}
	}
	if d := got.Interference.Diff(want.Interference); len(d) > 0 {
		return fmt.Sprintf("uncore: %d metrics differ, first %s", len(d), d[0])
	}
	return ""
}

// socketDone is one finished cell.
type socketDone struct {
	cell socketCell
	res  *harness.SocketRunResult
}

// run sends cells one at a time in passes over the grid, each pass in a
// seed-chosen order, until stop, given the cells sent so far, reports
// true at a pass boundary. It returns the cells of the first keep passes.
func (s *socketCorun) run(b *bench, p *phase, keep int, stop func(sent int) bool) []socketDone {
	var kept []socketDone
	sent := 0
	for pass := 0; !stop(sent); pass++ {
		cells := s.grid(b, pass)
		b.rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		for _, cell := range cells {
			var res *harness.SocketRunResult
			err := p.cell(func() error {
				var err error
				res, err = s.exec(cell)
				return err
			})
			sent++
			if err != nil {
				b.fail("socket %s: %v", cell.key(), err)
			} else if pass < keep {
				kept = append(kept, socketDone{cell, res})
			}
		}
	}
	return kept
}

func (s *socketCorun) timed(b *bench) (*phase, error) {
	s.init()
	p := &phase{}
	for i := 0; i < setupReps; i++ {
		if err := p.timeSetup(func() error { return genPrograms(s.benches, i == 0) }); err != nil {
			return nil, err
		}
	}
	var first []socketDone
	p.measure(func() {
		first = s.run(b, p, 1, func(int) bool { return p.done(b) || !b.ok() })
	})
	fmt.Printf("socket-corun: %d cells in %.2fs\n", p.attempted, p.elapsed)
	b.endToEnd(p)
	if !b.ok() {
		return p, nil
	}

	// Untimed: a seed-chosen sample of the first pass, again, serially.
	for _, i := range b.sample(len(first), socketVerify) {
		want, err := harness.ExecuteSocket(first[i].cell.specs, first[i].cell.so)
		if err != nil {
			return nil, fmt.Errorf("verify %s: %w", first[i].cell.key(), err)
		}
		if d := sameSocket(first[i].res, want); d != "" {
			b.fail("socket %s differs from a serial ExecuteSocket: %s", first[i].cell.key(), d)
		}
	}
	fmt.Printf("verify: %d sampled sockets re-run serially\n", socketVerify)
	return p, nil
}

func (s *socketCorun) traced(b *bench) error {
	s.init()
	t := b.tr
	if err := genPrograms(s.benches, true); err != nil {
		return err
	}
	if err := t.programs(s.benches); err != nil {
		return err
	}

	// The untraced reference: passes as in the timed phase until at least
	// minCells cells have run.
	ref := s.run(b, &phase{}, math.MaxInt, func(sent int) bool { return sent >= minCells })
	if !b.ok() {
		return nil
	}

	// The same cells, one at a time, through the layers: configs, socket
	// build, warmup, stats reset, measure and the frozen snapshots; then
	// harness.ExecuteSocket on the same cell.
	var steals, evictions uint64
	for _, done := range ref {
		cell := done.cell
		t.startCell()
		got := &harness.SocketRunResult{}
		_, err := t.do("cell", func() error {
			tenants := make([]core.SocketTenant, len(cell.specs))
			for j, spec := range cell.specs {
				prog, c, err := t.config(spec)
				if err != nil {
					return err
				}
				tenants[j] = core.SocketTenant{Prog: prog, Config: c}
			}
			var sock *core.Socket
			if _, err := t.do("socket.build", func() error {
				var err error
				sock, err = core.NewSocket(tenants, core.SocketConfig{SharedPrefetcher: cell.so.SharedPrefetcher})
				return err
			}); err != nil {
				return err
			}
			if err := t.socketRun("socket.warmup", sock, socketWarmup); err != nil {
				return err
			}
			sock.ResetStats()
			if err := t.socketRun("socket.measure", sock, socketMeasure); err != nil {
				return err
			}
			t.do("metrics.snapshot", func() error {
				for j, spec := range cell.specs {
					res, snap := sock.TenantResult(j)
					got.Tenants = append(got.Tenants, &harness.RunResult{Spec: spec, Res: res, Metrics: snap})
				}
				got.Interference = sock.InterferenceSnapshot()
				return nil
			})
			return nil
		})
		if err != nil {
			return fmt.Errorf("traced %s: %w", cell.key(), err)
		}
		if d := sameSocket(got, done.res); d != "" {
			b.fail("traced %s differs from the untraced run: %s", cell.key(), d)
		}
		steals += tenantSum(got.Interference, "mshr_steals")
		evictions += tenantSum(got.Interference, "cross_evictions")

		if _, err := t.do("harness.job", func() error {
			_, err := harness.ExecuteSocket(cell.specs, cell.so)
			return err
		}); err != nil {
			return err
		}
	}

	b.commonLayers()
	var ns int64
	var insts, cycles uint64
	for _, name := range []string{"socket.warmup", "socket.measure"} {
		n, in, cyc := t.simWork(name)
		ns, insts, cycles = ns+n, insts+in, cycles+cyc
	}
	b.layer("socket.build_ms", t.meanMs("socket.build"))
	if cycles > 0 {
		b.layer("socket.ns_per_cycle", float64(ns)/float64(cycles))
	}
	b.layer("core.sim_insts", float64(insts))
	b.layer("core.sim_cycles", float64(cycles))
	b.cellAlloc("socket.build", "socket.warmup", "socket.measure")
	b.layer("uncore.mshr_steals", float64(steals))
	b.layer("uncore.cross_evictions", float64(evictions))
	b.layer("split.core_frac", frac(t.inCells("socket.build", "socket.warmup", "socket.measure")))
	return nil
}

// socketRun traces Socket.Run of n instructions per tenant, recording the
// instructions the tenants retired and the socket cycles it took.
func (t *tracer) socketRun(name string, sock *core.Socket, n uint64) error {
	retired := func() (sum uint64) {
		for i := 0; i < sock.NumCores(); i++ {
			sum += sock.Core(i).Result().Core.Instructions
		}
		return sum
	}
	i0, c0 := retired(), sock.Cycles()
	s, err := t.do(name, func() error { return sock.Run(n) })
	s.Insts, s.Cycles = retired()-i0, uint64(sock.Cycles()-c0)
	return err
}

// tenantSum adds up counter uncore.tenant<i>.<level>.<name> over every
// tenant and shared level.
func tenantSum(snap metrics.Snapshot, name string) uint64 {
	var sum uint64
	for i := 0; ; i++ {
		l2, ok := snap.Counters[fmt.Sprintf("uncore.tenant%d.l2.%s", i, name)]
		if !ok {
			return sum
		}
		sum += l2 + snap.Counters[fmt.Sprintf("uncore.tenant%d.l3.%s", i, name)]
	}
}
