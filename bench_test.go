// Package pdip's benchmarks regenerate each table and figure of the paper
// at benchmark scale: one testing.B target per artifact, plus ablation
// benches for the design choices DESIGN.md calls out and micro-benches for
// the hot simulator paths.
//
// The figure/table benches run a reduced grid (two benchmarks, small
// instruction budgets) so `go test -bench=.` finishes in minutes; the full
// 16-benchmark reproduction is `go run ./cmd/experiments -run all`.
package pdip

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"pdip/internal/bpu"
	"pdip/internal/cache"
	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/fabric"
	"pdip/internal/harness"
	"pdip/internal/isa"
	"pdip/internal/mem"
	ipdip "pdip/internal/pdip"
	"pdip/internal/policy"
	"pdip/internal/prefetch"
	"pdip/internal/trace"
	"pdip/internal/trace/champsim"
	"pdip/internal/uncore"
	"pdip/internal/workload"
)

func fecBenchEvent(trigger, line uint64) prefetch.RetireEvent {
	return prefetch.RetireEvent{
		Line:           isa.Addr(line),
		Missed:         true,
		FEC:            true,
		HighCost:       true,
		BackendEmpty:   true,
		StarveCycles:   20,
		ResteerTrigger: isa.Addr(trigger),
	}
}

func addr(a uint64) isa.Addr { return isa.Addr(a) }

// benchOptions is the reduced grid used by the per-figure benches.
func benchOptions() Options {
	return Options{
		Warmup:     30_000,
		Measure:    80_000,
		Benchmarks: []string{"kafka", "speedometer2.0"},
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := NewRunner(0)
		if _, err := e.Run(r, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1TopDown(b *testing.B)              { benchExperiment(b, "fig1") }
func BenchmarkFig3PriorTechniques(b *testing.B)      { benchExperiment(b, "fig3") }
func BenchmarkFig4FECBreakdown(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig9MPKI(b *testing.B)                 { benchExperiment(b, "fig9") }
func BenchmarkFig10Speedup(b *testing.B)             { benchExperiment(b, "fig10") }
func BenchmarkFig11LatePrefetch(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkTable4Accuracy(b *testing.B)           { benchExperiment(b, "tab4") }
func BenchmarkFig12FECStallReduction(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13TableSensitivity(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkTable5EnergyArea(b *testing.B)         { benchExperiment(b, "tab5") }
func BenchmarkFig16TriggerDistribution(b *testing.B) { benchExperiment(b, "fig16") }

// Fig 14/15 sweep six BTB sizes; bench a two-point subset.
func BenchmarkFig14BTBSensitivity(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := NewRunner(0)
		for _, btb := range []int{4096, 8192} {
			for _, bench := range o.Benchmarks {
				for _, pol := range []string{"baseline", "pdip44"} {
					if _, err := r.Run(RunSpec{
						Benchmark: bench, Policy: pol,
						Warmup: o.Warmup, Measure: o.Measure, BTBEntries: btb,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

func BenchmarkFig15StorageFrontier(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		r := NewRunner(0)
		for _, btb := range []int{4096, 16384} {
			for _, bench := range o.Benchmarks {
				for _, pol := range []string{"baseline", "pdip11", "eip46"} {
					if _, err := r.Run(RunSpec{
						Benchmark: bench, Policy: pol,
						Warmup: o.Warmup, Measure: o.Measure, BTBEntries: btb,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// --- ablation benches (DESIGN.md §6) ---

func benchPolicyPair(b *testing.B, a, c string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, pol := range []string{a, c} {
			if _, err := Run(RunSpec{
				Benchmark: "kafka", Policy: pol,
				Warmup: 30_000, Measure: 80_000,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationInsertProb compares the paper's 0.25 insertion filter
// against insert-always (§5.3).
func BenchmarkAblationInsertProb(b *testing.B) { benchPolicyPair(b, "pdip44", "pdip44-insert100") }

// BenchmarkAblationCandidateFilter compares high-cost+back-end-stall
// candidate selection against all-FEC insertion (§4.1/§5.3).
func BenchmarkAblationCandidateFilter(b *testing.B) { benchPolicyPair(b, "pdip44", "pdip44-allfec") }

// BenchmarkAblationMask compares the 4-bit following-blocks mask against
// single-line targets (§5.1).
func BenchmarkAblationMask(b *testing.B) { benchPolicyPair(b, "pdip44", "pdip44-nomask") }

// BenchmarkAblationReturnTriggers compares §5.2's return exclusion.
func BenchmarkAblationReturnTriggers(b *testing.B) { benchPolicyPair(b, "pdip44", "pdip44-returns") }

// BenchmarkAblationPQReserve compares the 2-MSHR demand reserve of §5.
func BenchmarkAblationPQReserve(b *testing.B) { benchPolicyPair(b, "pdip44", "pdip44-reserve0") }

// BenchmarkAblationFDIP measures the value of the decoupled front-end
// itself (§6.2: FDIP is worth 27.1% over a coupled core).
func BenchmarkAblationFDIP(b *testing.B) { benchPolicyPair(b, "baseline", "no-fdip") }

// BenchmarkFabricGridThroughput distributes a fixed 6-cell grid over
// localhost fleets of 1, 2, and 4 workers that share a pre-warmed
// checkpoint directory (warmed outside the timed region, so every job
// forks instead of simulating its warmup). Each iteration is one full
// grid: fleet start, distribution, measure-phase simulation, merge,
// drain. On a multi-core host the 2- and 4-worker rows show the fabric's
// scaling; on a single-core host they bound its overhead instead — see
// EXPERIMENTS.md.
func BenchmarkFabricGridThroughput(b *testing.B) {
	grid := fabric.Grid{
		Benchmarks: []string{"cassandra", "kafka", "tpcc"},
		Policies:   []string{"baseline", "pdip44"},
		Warmup:     20_000,
		Measure:    60_000,
	}
	specs, err := grid.Specs()
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ckdir := b.TempDir()
			if _, err := harness.NewRunnerWithCheckpoints(0, ckdir).RunAll(specs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fleet := fabric.StartFleet(workers, 1, ckdir, fabric.Config{})
				results, err := fleet.RunGrid(specs)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(specs) {
					b.Fatalf("want %d cells, got %d", len(specs), len(results))
				}
				fleet.Close()
			}
			b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// --- simulator micro-benches ---

// BenchmarkSimulatorThroughput measures raw simulated instructions/second
// on the baseline machine (reported as ns/op for one instruction).
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, err := workload.ByName("cassandra")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		b.Fatal(err)
	}
	c := core.DefaultConfig()
	c.Seed = 1
	co := core.MustNew(prog, c)
	b.ReportAllocs()
	b.ResetTimer()
	start := co.Cycles()
	if err := co.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	reportSimCycles(b, co.Cycles()-start)
}

// reportSimCycles publishes simulated cycles per wall-clock second — the
// end-to-end throughput number bench-track trends across commits.
func reportSimCycles(b *testing.B, cycles int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(cycles)/s, "simcycles/s")
	}
}

// BenchmarkProgramGenerate measures one cfg.Generate of cassandra, the
// profile with the largest code footprint, per op: the set-up every
// process that runs a grid pays once per benchmark.
func BenchmarkProgramGenerate(b *testing.B) {
	prof, err := workload.ByName("cassandra")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Generate(prof.CFG); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalker measures the synthetic trace generator alone.
func BenchmarkWalker(b *testing.B) {
	p := cfg.DefaultParams()
	p.NumFuncs = 512
	prog := cfg.MustGenerate(p)
	w := trace.New(prog, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next()
	}
}

// BenchmarkMicroWalkProgram walks cassandra's program, the largest, in
// runs of up to 16 instructions as the IAG takes them, with the oracle
// seed the harness uses; one op is one instruction. Unlike
// BenchmarkWalker's small program, cassandra's block table does not fit
// in cache, so this row shows the block layout as well as the run step.
func BenchmarkMicroWalkProgram(b *testing.B) {
	prof, err := workload.ByName("cassandra")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		b.Fatal(err)
	}
	w := trace.New(prog, prof.CFG.Seed^0x5eed)
	defer w.Release()
	run := make([]isa.Inst, 0, 16)
	// Warm past the call stack's growth.
	for n := 0; n < 50_000; n += len(run) {
		run = w.AppendRun(run[:0], 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += len(run) {
		run = w.AppendRun(run[:0], min(16, b.N-n))
	}
}

// --- per-stage micro-benches (EXPERIMENTS.md before/after table) ---
//
// These isolate the three hot paths the pipeline/port refactor touched:
// a resident cache lookup (one port message, replied at L1), the full
// fetch path (messages traversing L1I→L2→L3→DRAM on cold lines), and the
// prefetch-queue drain into the instruction port. CoreStep measures one
// whole-pipeline tick for the composite view.

// benchHierarchy builds a lone core's hierarchy on the default machine the
// way a socket does: private L1s over a one-requester uncore's tenant port.
func benchHierarchy() *mem.Hierarchy {
	c := core.DefaultConfig().Mem
	u := uncore.MustNew(uncore.Config{L2: c.L2, L3: c.L3, DRAMLatency: c.DRAMLatency, Requesters: 1})
	return mem.MustNew(c, u.L2, u.L3, u.Port(0))
}

// BenchmarkMicroCacheLookup measures a warm L1I lookup through the
// instruction port — the per-message overhead of the port model.
func BenchmarkMicroCacheLookup(b *testing.B) {
	h := benchHierarchy()
	p := h.InstPort()
	p.Send(mem.Req{Op: mem.OpFetch, Line: addr(0x1000), At: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(mem.Req{Op: mem.OpFetch, Line: addr(0x1000), At: int64(i) + 10_000})
	}
}

// BenchmarkMicroFetchPath measures demand fetches over a footprint larger
// than the L1I, so messages regularly traverse the full port chain.
func BenchmarkMicroFetchPath(b *testing.B) {
	h := benchHierarchy()
	p := h.InstPort()
	const footprint = 4096 // lines; 256KB >> 32KB L1I
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := addr(uint64(i%footprint) * 64)
		p.Send(mem.Req{Op: mem.OpFetch, Line: line, At: int64(i) * 3})
	}
}

// BenchmarkMicroPQDrain measures enqueue + priority-ordered drain of the
// prefetch queue into the instruction port.
func BenchmarkMicroPQDrain(b *testing.B) {
	h := benchHierarchy()
	q := prefetch.NewQueue(32)
	noPriority := func(isa.Addr) bool { return false }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 8 * 64
		for j := uint64(0); j < 8; j++ {
			q.Enqueue(prefetch.Request{Line: addr(base + j*64)})
		}
		q.Drain(h.InstPort(), int64(i)*4, noPriority)
	}
}

// BenchmarkMicroCoreStep measures one full pipeline tick (all six stages)
// on the default machine, reported per retired instruction.
func BenchmarkMicroCoreStep(b *testing.B) {
	prof, err := workload.ByName("kafka")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		b.Fatal(err)
	}
	c := core.DefaultConfig()
	c.Seed = 1
	co := core.MustNew(prog, c)
	b.ReportAllocs()
	b.ResetTimer()
	start := co.Cycles()
	if err := co.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	reportSimCycles(b, co.Cycles()-start)
}

// BenchmarkMicroPolicyStep measures one cycle of a warmed kafka core —
// the unit the zero-alloc contract is stated in — under each evaluated
// prefetcher and L2 replacement policy, so the perf-smoke gate covers
// the policies' hooks as well as the bare pipeline. The warmup grows
// their tables and pools before the timed loop.
func BenchmarkMicroPolicyStep(b *testing.B) {
	prof, err := workload.ByName("kafka")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"pdip44", "eip46", "eip-analytical", "rdip", "fnl-mma",
		"nextline", "emissary", "fec-ideal", "pdip44+emissary"} {
		b.Run(name, func(b *testing.B) {
			pol, err := policy.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			c := core.DefaultConfig()
			c.Seed = 1
			pol.Apply(&c)
			s, err := core.NewSocket([]core.SocketTenant{{Prog: prog, Config: c}}, core.SocketConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(20_000); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := s.Cycles()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			reportSimCycles(b, s.Cycles()-start)
		})
	}
}

// BenchmarkMicroTraceReplay measures one decoded instruction off the
// ChampSim trace front-end in standalone mode — the per-instruction cost a
// trace-driven run adds over the synthetic walker (BenchmarkWalker). The
// trace is raw (uncompressed) and the source is warmed past its first
// chunk, so steady state must stay at 0 allocs/op: Next reuses the chunk
// buffer and the fixed-size decode cache and RAS mirror, wrapping back to
// record 0 when the pass ends.
func BenchmarkMicroTraceReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "kafka.champsim")
	spec := RunSpec{Benchmark: "kafka", Policy: "baseline"}
	if err := RecordTrace(spec, path, 200_000); err != nil {
		b.Fatal(err)
	}
	src, err := champsim.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 50_000; i++ {
		src.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next()
	}
	b.StopTimer()
	if err := src.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMicroTAGEPredict measures one predict+train round trip of the
// TAGE conditional predictor — the folded-history memoization target.
func BenchmarkMicroTAGEPredict(b *testing.B) {
	t := bpu.NewTAGE()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := addr(0x1000 + uint64(i%512)*4)
		t.Predict(pc)
		t.Update(pc, i&3 != 0)
	}
}

// BenchmarkMicroMSHRPrune measures the MSHR bookkeeping of a first-level
// cache under a steady fill/expiry interleaving — the in-place prune and
// cached earliest-free paths.
func BenchmarkMicroMSHRPrune(b *testing.B) {
	c, err := cache.New(cache.Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 2, MSHRs: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i) * 4
		c.Fill(addr(uint64(i%1024)*64), now, now+20, cache.FillOpts{})
		c.MSHRFree(now + 2)
		c.EarliestMSHRFree(now + 2)
	}
}

// --- checkpoint benches (EXPERIMENTS.md warm-state reuse table) ---

// BenchmarkCheckpointSaveRestore measures one full snapshot round trip of
// a warmed simulator: capture, serialize (the binary columnar on-disk
// format), deserialize, and restore into a fresh core — the per-fork
// overhead the warm-state layer pays instead of re-simulating the warmup
// window.
func BenchmarkCheckpointSaveRestore(b *testing.B) {
	prof, err := workload.ByName("cassandra")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		b.Fatal(err)
	}
	c := core.DefaultConfig()
	c.Seed = 1
	c.Prefetcher = ipdip.New(ipdip.DefaultConfig())
	co := core.MustNew(prog, c)
	if err := co.Run(60_000); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := co.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := checkpoint.Encode(&buf, st); err != nil {
			b.Fatal(err)
		}
		st2, err := checkpoint.DecodeBytes(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		cf := c
		cf.Prefetcher = ipdip.New(ipdip.DefaultConfig())
		if _, err := core.NewFromSnapshot(prog, cf, st2); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(buf.Len()), "ckpt-bytes")
		}
	}
}

// benchCheckpointFork measures the warm-fork path through the checkpoint
// store: Load a stored warm state from a Dir, instantiate a core from it
// and release the core, as the harness does once a fork is measured — the
// per-cell cost a grid pays once its warmup is amortized. cacheBytes
// selects the path under test: with the decoded-state cache disabled
// every Load pays the full disk decode; with it enabled every Load after
// the first is an in-memory hit and the fork cost is just the core
// rebuild, on the tables the previous fork released (internal/recycle).
func benchCheckpointFork(b *testing.B, cacheBytes int64) {
	prof, err := workload.ByName("cassandra")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		b.Fatal(err)
	}
	c := core.DefaultConfig()
	c.Seed = 1
	c.Prefetcher = ipdip.New(ipdip.DefaultConfig())
	co := core.MustNew(prog, c)
	if err := co.Run(60_000); err != nil {
		b.Fatal(err)
	}
	st, err := co.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	store := checkpoint.NewDir(b.TempDir(), cacheBytes)
	if err := store.Save("warm", st); err != nil {
		b.Fatal(err)
	}
	if _, _, err := store.Load("warm"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := store.Load("warm")
		if err != nil || got == nil {
			b.Fatalf("load: (%v, %v)", got, err)
		}
		cf := c
		cf.Prefetcher = ipdip.New(ipdip.DefaultConfig())
		fork, err := core.NewFromSnapshot(prog, cf, got)
		if err != nil {
			b.Fatal(err)
		}
		fork.Release()
	}
}

func BenchmarkCheckpointForkDisk(b *testing.B)   { benchCheckpointFork(b, -1) }
func BenchmarkCheckpointForkCached(b *testing.B) { benchCheckpointFork(b, 0) }

// BenchmarkGridWarmupReuse measures a grid of specs that share one warm
// tuple through the runner's warm-state layer over a memory-only store:
// one simulated warmup plus one snapshot fork per cell, against cellCount
// full warmups from scratch on a runner without a store. The cells differ
// only in SampleEvery (set beyond the measure budget so no samples are
// actually recorded), which makes them distinct specs with identical
// simulated work.
func BenchmarkGridWarmupReuse(b *testing.B) {
	const cells = 6
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunnerWithDir(0, NewCheckpointDir("", 0))
		specs := make([]RunSpec, cells)
		for j := range specs {
			specs[j] = RunSpec{
				Benchmark: "kafka", Policy: "pdip44",
				Warmup: 60_000, Measure: 40_000,
				SampleEvery: 1<<40 + uint64(j),
			}
		}
		if _, err := r.RunAll(specs); err != nil {
			b.Fatal(err)
		}
		if s := r.Stats().Checkpoint; s.Forks != cells || s.WarmupsExecuted != 1 {
			b.Fatalf("%+v: want %d forks of one warmup", s, cells)
		}
	}
}

// BenchmarkMicroSocketStep measures one socket arbitration round — N
// lockstep core ticks plus the socket-wide idle-skip decision and the
// shared-port traffic they generate — at 2 and 4 cores. The socket path
// must hold the same zero-alloc steady-state contract as the single-core
// step (perf-smoke gate), so fills crossing the arbitrated uncore port
// may not allocate.
func BenchmarkMicroSocketStep(b *testing.B) {
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			names := workload.Names()
			tenants := make([]core.SocketTenant, n)
			for i := range tenants {
				prof, err := workload.ByName(names[i%len(names)])
				if err != nil {
					b.Fatal(err)
				}
				prog, err := prof.Program()
				if err != nil {
					b.Fatal(err)
				}
				c := core.DefaultConfig()
				c.Seed = uint64(i + 1)
				tenants[i] = core.SocketTenant{Prog: prog, Config: c}
			}
			s, err := core.NewSocket(tenants, core.SocketConfig{})
			if err != nil {
				b.Fatal(err)
			}
			// Warm every tenant past pool growth so the timed loop is
			// steady state.
			if err := s.Run(20_000); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := s.Cycles()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			reportSimCycles(b, s.Cycles()-start)
		})
	}
}

// BenchmarkPDIPTable measures table insert+lookup cost.
func BenchmarkPDIPTable(b *testing.B) {
	pc := ipdip.DefaultConfig()
	pc.InsertProb = 1.0
	pc.RequireHighCost = false
	p := ipdip.New(pc)
	reqs := p.OnFTQInsert(0x1000, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trig := 0x1000 + uint64(i%4096)*64
		p.OnLineRetired(fecBenchEvent(trig, trig+0x40000))
		reqs = p.OnFTQInsert(addr(trig), reqs[:0])
	}
}
