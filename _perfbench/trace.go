package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/harness"
	"pdip/internal/policy"
	"pdip/internal/workload"
)

// span is one timed call into a layer. Spans of one cell share Cell;
// set-up spans have Cell 0. Parent is the enclosing span's ID (0: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Go runtime deltas over the span.
	Alloc   uint64 `json:"alloc_bytes"`
	GCs     uint32 `json:"gc_cycles"`
	PauseNs uint64 `json:"gc_pause_ns"`
	Heap    uint64 `json:"heap_bytes_at_end"`
	// Simulated work done in the span, where the layer reports it.
	Insts  uint64 `json:"sim_insts,omitempty"`
	Cycles uint64 `json:"sim_cycles,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Cached bool   `json:"cached,omitempty"`
}

func (s *span) ns() int64 { return s.End - s.Start }

// tracer records spans in memory; they are written out when the run ends.
// The traced run is serial, so spans nest strictly and runtime deltas
// belong to one span.
type tracer struct {
	t0    time.Time
	spans []*span
	open  []*span
	cell  int
	cells int
	mem   runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startCell begins a new cell; later spans carry its id.
func (t *tracer) startCell() {
	t.cells++
	t.cell = t.cells
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) *span {
	runtime.ReadMemStats(&t.mem)
	s := &span{ID: len(t.spans) + 1, Cell: t.cell, Name: name}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1].ID
	}
	s.Alloc, s.GCs, s.PauseNs = t.mem.TotalAlloc, t.mem.NumGC, t.mem.PauseTotalNs
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	s.Start = time.Since(t.t0).Nanoseconds()
	return s
}

// end closes s, which must be the innermost open span.
func (t *tracer) end(s *span) {
	s.End = time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&t.mem)
	s.Alloc = t.mem.TotalAlloc - s.Alloc
	s.GCs = t.mem.NumGC - s.GCs
	s.PauseNs = t.mem.PauseTotalNs - s.PauseNs
	s.Heap = t.mem.HeapAlloc
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span named name and returns the span.
func (t *tracer) do(name string, fn func() error) (*span, error) {
	s := t.begin(name)
	err := fn()
	t.end(s)
	return s, err
}

// self returns each span's self time: its duration minus its children's.
func (t *tracer) self() map[int]int64 {
	self := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.ns()
		if s.Parent != 0 {
			self[s.Parent] -= s.ns()
		}
	}
	return self
}

// meanMs is the mean self time of the spans named name, in ms.
func (t *tracer) meanMs(name string) float64 {
	self := t.self()
	var ns int64
	n := 0
	t.each(name, func(s *span) {
		ns += self[s.ID]
		n++
	})
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e6
}

// each calls fn for every span named name.
func (t *tracer) each(name string, fn func(s *span)) {
	for _, s := range t.spans {
		if s.Name == name {
			fn(s)
		}
	}
}

func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// config re-composes the harness's configuration of spec from the
// layers' public calls: the workload profile's program and knobs, the
// seed mix, the BTB override, then the policy hook. The traced run's
// counters equal the untraced run's only if this matches the harness.
func (t *tracer) config(spec harness.RunSpec) (prog *cfg.Program, c core.Config, err error) {
	_, err = t.do("config", func() error {
		prof, err := workload.ByName(spec.Benchmark)
		if err != nil {
			return err
		}
		pol, err := policy.ByName(spec.Policy)
		if err != nil {
			return err
		}
		if prog, err = prof.Program(); err != nil {
			return err
		}
		c = core.DefaultConfig()
		c.Seed = prof.CFG.Seed ^ 0x5eed
		if spec.Seed != 0 {
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
		return nil
	})
	return prog, c, err
}

// storeKey re-composes the key the harness files spec's warm state under
// in a checkpoint store (content hash of the format version, workload
// parameters and configuration). It must match, or every load misses.
func storeKey(spec harness.RunSpec, c core.Config) (string, error) {
	prof, err := workload.ByName(spec.Benchmark)
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
	}{checkpoint.FormatVersion, spec.Benchmark, spec.Policy, spec.Warmup, prof.CFG, c})
}

// programs times program generation for each benchmark, the work
// Profile.Program does on its first call (later calls hit its cache).
func (t *tracer) programs(benches []string) error {
	for _, name := range benches {
		prof, err := workload.ByName(name)
		if err != nil {
			return err
		}
		if _, err := t.do("cfg.program", func() error {
			_, err := cfg.Generate(prof.CFG)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// build traces core construction.
func (t *tracer) build(prog *cfg.Program, c core.Config) (co *core.Core, err error) {
	_, err = t.do("core.build", func() error {
		co, err = core.New(prog, c)
		return err
	})
	return co, err
}

// run traces Core.Run of n instructions under name, recording the
// simulated instructions and cycles it took.
func (t *tracer) run(name string, co *core.Core, n uint64) error {
	r0 := co.Result().Core
	s, err := t.do(name, func() error { return co.Run(n) })
	r1 := co.Result().Core
	s.Insts, s.Cycles = r1.Instructions-r0.Instructions, r1.Cycles-r0.Cycles
	return err
}

// snapshot traces Core.Snapshot.
func (t *tracer) snapshot(co *core.Core) (st *checkpoint.State, err error) {
	_, err = t.do("checkpoint.snapshot", func() error {
		st, err = co.Snapshot()
		return err
	})
	return st, err
}

// restore traces core.NewFromSnapshot.
func (t *tracer) restore(prog *cfg.Program, c core.Config, st *checkpoint.State) (co *core.Core, err error) {
	_, err = t.do("checkpoint.restore", func() error {
		co, err = core.NewFromSnapshot(prog, c, st)
		return err
	})
	return co, err
}

// measure traces the measured window of spec on a warm core: the stats
// reset, sampling set-up and Core.Run, then the metrics snapshot.
func (t *tracer) measure(co *core.Core, spec harness.RunSpec) (*harness.RunResult, error) {
	co.ResetStats()
	if spec.SampleEvery > 0 {
		co.EnableSampling(spec.SampleEvery)
	}
	if err := t.run("core.measure", co, spec.Measure); err != nil {
		return nil, fmt.Errorf("%s measure: %w", spec.Key(), err)
	}
	res := &harness.RunResult{Spec: spec}
	t.do("metrics.snapshot", func() error {
		res.Res = co.Result()
		res.Metrics = co.MetricsSnapshot()
		res.Samples = co.Samples()
		return nil
	})
	return res, nil
}

// perLayerUnits names every per-layer metric a traced run prints, with
// its unit. Metrics of layers a workload does not exercise read 0.
var perLayerUnits = map[string]string{
	"cfg.program_ms":              "ms",
	"core.build_ms":               "ms",
	"core.warmup_ns_per_inst":     "ns",
	"core.measure_ns_per_inst":    "ns",
	"core.ns_per_cycle":           "ns",
	"core.sim_insts":              "count",
	"core.sim_cycles":             "count",
	"core.alloc_mb_per_cell":      "MiB",
	"checkpoint.snapshot_ms":      "ms",
	"checkpoint.restore_ms":       "ms",
	"checkpoint.encode_ms":        "ms",
	"checkpoint.save_ms":          "ms",
	"checkpoint.state_kb":         "KiB",
	"checkpoint.load_disk_ms":     "ms",
	"checkpoint.load_cached_ms":   "ms",
	"checkpoint.cache_hit_ratio":  "fraction",
	"checkpoint.loads":            "count",
	"harness.job_ms_p50":          "ms",
	"harness.job_ms_p90":          "ms",
	"harness.self_ms":             "ms",
	"harness.forks":               "count",
	"harness.warmups":             "count",
	"harness.memo_hits":           "count",
	"harness.seed_probe_mismatch": "count",
	"fabric.overhead_ms":          "ms",
	"fabric.wire_kb_per_cell":     "KiB",
	"fabric.msgs_per_cell":        "count",
	"fabric.retries":              "count",
	"fabric.requeues":             "count",
	"fabric.failed":               "count",
	"socket.build_ms":             "ms",
	"socket.ns_per_cycle":         "ns",
	"uncore.mshr_steals":          "count",
	"uncore.cross_evictions":      "count",
	"metrics.snapshot_ms":         "ms",
	"runtime.gc_cycles":           "count",
	"runtime.gc_pause_ms":         "ms",
	"runtime.heap_peak_mb":        "MiB",
	"trace.overhead_ratio":        "ratio",
	"split.core_frac":             "fraction",
	"split.ckpt_fabric_frac":      "fraction",
}

// layer sets a per-layer metric.
func (b *bench) layer(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	b.set(name, unit, v)
}

// zeroLayers sets every per-layer metric not set yet to 0: the layer was
// not exercised, or the run stopped early.
func (b *bench) zeroLayers() {
	for name := range perLayerUnits {
		if _, ok := b.metrics[name]; !ok {
			b.layer(name, 0)
		}
	}
}

// commonLayers sets the per-layer metrics every workload derives the same
// way from its spans. Each traced cell has a "cell" span around its
// re-composed layer calls and a "harness.job" span around the same cell
// run untraced through the harness right after; the pair gives the
// harness's own time and the tracing overhead.
func (b *bench) commonLayers() {
	t := b.tr
	b.layer("cfg.program_ms", t.meanMs("cfg.program"))
	b.layer("core.build_ms", t.meanMs("core.build"))
	b.layer("checkpoint.snapshot_ms", t.meanMs("checkpoint.snapshot"))
	b.layer("checkpoint.restore_ms", t.meanMs("checkpoint.restore"))
	b.layer("metrics.snapshot_ms", t.meanMs("metrics.snapshot"))

	var coreNs int64
	var insts, cycles uint64
	for _, name := range []string{"core.warmup", "core.measure"} {
		ns, n, cyc := t.simWork(name)
		if n > 0 {
			b.layer(name+"_ns_per_inst", float64(ns)/float64(n))
		}
		coreNs, insts, cycles = coreNs+ns, insts+n, cycles+cyc
	}
	if cycles > 0 {
		b.layer("core.ns_per_cycle", float64(coreNs)/float64(cycles))
	}
	b.layer("core.sim_insts", float64(insts))
	b.layer("core.sim_cycles", float64(cycles))
	b.cellAlloc("core.build", "core.warmup", "core.measure")

	var gcs uint64
	var pause uint64
	var heap uint64
	for _, s := range t.spans {
		if s.Parent == 0 {
			gcs += uint64(s.GCs)
			pause += s.PauseNs
		}
		if s.Heap > heap {
			heap = s.Heap
		}
	}
	b.layer("runtime.gc_cycles", float64(gcs))
	b.layer("runtime.gc_pause_ms", float64(pause)/1e6)
	b.layer("runtime.heap_peak_mb", float64(heap)/(1<<20))

	var jobs, self []float64
	var tracedNs, jobNs int64
	roots := map[int]*span{}
	t.each("cell", func(s *span) { roots[s.Cell] = s })
	t.each("harness.job", func(s *span) {
		root := roots[s.Cell]
		if root == nil {
			return
		}
		ms := float64(s.ns()) / 1e6
		jobs = append(jobs, ms)
		self = append(self, ms-t.layerMs(root))
		tracedNs += root.ns()
		jobNs += s.ns()
	})
	b.layer("harness.job_ms_p50", quantile(jobs, 0.5))
	b.layer("harness.job_ms_p90", quantile(jobs, 0.9))
	b.layer("harness.self_ms", median(self))
	b.layer("trace.overhead_ratio", frac(tracedNs, jobNs))
	fmt.Printf("trace: %d spans over %d cells; traced/untraced cell time %.3f\n", len(t.spans), t.cells, frac(tracedNs, jobNs))
}

// layerMs is the time root's direct children spent in layer calls, in ms:
// everything but the configuration, which is the harness's own work.
func (t *tracer) layerMs(root *span) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Parent == root.ID && s.Name != "config" {
			ns += s.ns()
		}
	}
	return float64(ns) / 1e6
}

// inCells sums, over the traced cells, the self time of the spans named
// names, and the cells' whole time.
func (t *tracer) inCells(names ...string) (in, total int64) {
	self := t.self()
	for _, s := range t.spans {
		if s.Cell == 0 {
			continue
		}
		if s.Name == "cell" {
			total += s.ns()
		}
		for _, name := range names {
			if s.Name == name {
				in += self[s.ID]
			}
		}
	}
	return in, total
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// simWork sums the spans named name: host time, and the simulated
// instructions and cycles.
func (t *tracer) simWork(name string) (ns int64, insts, cycles uint64) {
	t.each(name, func(s *span) {
		ns += s.ns()
		insts += s.Insts
		cycles += s.Cycles
	})
	return ns, insts, cycles
}

// cellAlloc sets core.alloc_mb_per_cell: heap allocated inside the named
// spans of the cells (set-up excluded), per cell.
func (b *bench) cellAlloc(names ...string) {
	var alloc uint64
	for _, name := range names {
		b.tr.each(name, func(s *span) {
			if s.Cell != 0 {
				alloc += s.Alloc
			}
		})
	}
	if b.tr.cells > 0 {
		b.layer("core.alloc_mb_per_cell", float64(alloc)/float64(b.tr.cells)/(1<<20))
	}
}
