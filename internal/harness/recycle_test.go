package harness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/core"
	"pdip/internal/metrics"
	"pdip/internal/recycle"
)

// tenantsFor builds specs' tenants as a fork does: a fresh configuration,
// and with it a fresh prefetcher, per tenant.
func tenantsFor(t *testing.T, specs []RunSpec) []core.SocketTenant {
	t.Helper()
	out := make([]core.SocketTenant, len(specs))
	for i, spec := range specs {
		prog, c, err := buildConfig(spec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = core.SocketTenant{Prog: prog, Config: c}
	}
	return out
}

// forkOf restores st into a socket built for specs and reports how many
// bytes of table the build took from the recycler.
func forkOf(t *testing.T, specs []RunSpec, st *checkpoint.State) (*core.Socket, uint64) {
	t.Helper()
	before := recycle.Stats().Recycled
	s, err := core.NewSocketFromSnapshot(tenantsFor(t, specs), core.SocketConfig{}, st)
	if err != nil {
		t.Fatal(err)
	}
	return s, recycle.Stats().Recycled - before
}

// window is what a fork's measured window reports: the socket-wide
// snapshot (every tenant's registry and the uncore's) and the samples.
type window struct {
	combined metrics.Snapshot
	samples  [][]metrics.Sample
}

// measureWindow measures specs' window on s and releases s.
func measureWindow(t *testing.T, s *core.Socket, specs []RunSpec) window {
	t.Helper()
	defer s.Release()
	_, m := specs[0].budgets()
	res, err := measureRun(s, specs, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := window{combined: s.CombinedSnapshot()}
	for _, r := range res {
		w.samples = append(w.samples, r.Samples)
	}
	return w
}

func (w window) diff(o window) []string {
	d := w.combined.Diff(o.combined)
	for i := range w.samples {
		a, b := w.samples[i], o.samples[i]
		if len(a) != len(b) {
			d = append(d, fmt.Sprintf("tenant %d: %d samples, want %d", i, len(a), len(b)))
			continue
		}
		for j := range a {
			for _, x := range a[j].Metrics.Diff(b[j].Metrics) {
				d = append(d, fmt.Sprintf("tenant %d sample %d: %s", i, j, x))
			}
		}
	}
	return d
}

// checkRecycledFork warms specs on one socket, forks the snapshot onto
// tables no socket has used and measures it, then runs dirty on
// another socket, releases it, forks the snapshot again onto the tables
// dirty left, and requires the two windows to match bit for bit.
func checkRecycledFork(t *testing.T, specs, dirty []RunSpec) {
	warmup, _ := specs[0].budgets()
	w, err := core.NewSocket(tenantsFor(t, specs), core.SocketConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(warmup); err != nil {
		t.Fatal(err)
	}
	st, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w.Release()

	// The reference fork must be built on never-used tables: forks that
	// found idle ones are held until the recycler has none left to give.
	var held []*core.Socket
	var ref *core.Socket
	for ref == nil {
		s, recycled := forkOf(t, specs, st)
		if recycled == 0 {
			ref = s
		} else if held = append(held, s); len(held) > 16 {
			t.Fatal("the recycler kept serving tables to 16 forks")
		}
	}
	want := measureWindow(t, ref, specs)
	for _, s := range held {
		s.Release()
	}

	d, err := core.NewSocket(tenantsFor(t, dirty), core.SocketConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(20_000); err != nil {
		t.Fatal(err)
	}
	d.Release()
	s, recycled := forkOf(t, specs, st)
	// The uncore, L1s and predictors of the default machine are ~1.3 MB.
	if recycled < 1<<20 {
		t.Fatalf("the fork took %d bytes of recycled table, want the dirty socket's", recycled)
	}
	if diff := measureWindow(t, s, specs).diff(want); len(diff) > 0 {
		if len(diff) > 20 {
			diff = diff[:20]
		}
		t.Errorf("a fork onto dirty recycled tables differs from one onto fresh tables:\n  %s",
			strings.Join(diff, "\n  "))
	}
}

// TestForkOnRecycledTablesEqualsFresh holds whole sockets to the contract
// TestDirtyRestoreEqualsFresh (internal/core) holds components to: every
// golden cell, forked onto tables that a socket of another benchmark,
// policy and seed left dirty, measures what its fork onto never-used
// tables measures, sampled alone and as tenant 0 of an owner-tracked
// two-tenant socket.
func TestForkOnRecycledTablesEqualsFresh(t *testing.T) {
	// Each dirty policy keeps the golden policy's prefetcher table shape
	// under another name, so the fork reuses that table too.
	dirtyPolicy := map[string]string{"baseline": "emissary", "pdip44": "pdip44-insert100", "eip46": "eip46+emissary"}
	cells := goldenSpecs()
	for i, cell := range cells {
		dirty := cells[(i+3)%len(cells)] // the next benchmark
		dirty.Policy, dirty.Seed = dirtyPolicy[cell.Policy], 7
		co := cells[(i+1)%len(cells)]
		dirtyCo := co // tenants of one socket agree on the L2, EMISSARY included
		dirtyCo.Policy, dirtyCo.Seed = dirty.Policy, 7

		// Windows shorter than the golden 200k keep the 18 cases
		// affordable under the race detector; the warm states are the
		// golden cells'.
		sampled := cell
		sampled.Measure, sampled.SampleEvery = 100_000, 25_000
		t.Run(cell.Key()+"/alone", func(t *testing.T) {
			checkRecycledFork(t, []RunSpec{sampled}, []RunSpec{dirty})
		})
		pair := []RunSpec{cell, co}
		for j := range pair {
			pair[j].Measure = 50_000
		}
		t.Run(cell.Key()+"/two-tenant", func(t *testing.T) {
			checkRecycledFork(t, pair, []RunSpec{dirty, dirtyCo})
		})
	}
}

// TestForkAfterReleaseAllocatesLittle: once a fork is released, a fork of
// another tuple on the same machine shape is built on its tables. From
// scratch the build allocates ~1.9 MB.
func TestForkAfterReleaseAllocatesLittle(t *testing.T) {
	first := RunSpec{Benchmark: "kafka", Policy: "pdip44", Warmup: 20_000, Measure: 5_000}
	second := RunSpec{Benchmark: "kafka", Policy: "pdip44-insert3", Seed: 2, Warmup: 20_000, Measure: 6_000}
	r := NewRunner(1)
	if _, err := r.Run(first); err != nil {
		t.Fatal(err)
	}
	st, err := r.warmState(warmKeyOf(second))
	if err != nil {
		t.Fatal(err)
	}
	first.Measure++
	if _, err := r.Run(first); err != nil { // the last release before the fork
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prog, c, err := buildConfig(second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSocketFromSnapshot([]core.SocketTenant{{Prog: prog, Config: c}}, core.SocketConfig{}, st)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Errorf("the second fork allocated %d bytes, want under 256 KiB", got)
	}
}

// TestStoreHitReleasesPrefetcher: a runner that finds the warm state in
// its store builds no warm core, so the prefetcher its warm configuration
// made goes back to the recycler, and the fork builds on it. The priming
// fork leaves one socket's tables idle, so the second runner's fork
// allocates no fresh table. Not parallel: it reads the process-wide
// recycler counters.
func TestStoreHitReleasesPrefetcher(t *testing.T) {
	spec := RunSpec{Benchmark: "kafka", Policy: "pdip44", Warmup: 20_000, Measure: 5_000}
	ck := checkpoint.NewDir(t.TempDir(), 0)
	if _, err := NewRunnerWithDir(1, ck).ExecuteJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	before := recycle.Stats().Fresh
	r := NewRunnerWithDir(1, ck)
	if _, err := r.ExecuteJob(spec, nil); err != nil {
		t.Fatal(err)
	}
	if s := r.CheckpointStats(); s.DirCacheHits != 1 || s.WarmupsExecuted != 0 {
		t.Fatalf("second runner: %+v (want the warm state from the store)", s)
	}
	if got := recycle.Stats().Fresh - before; got != 0 {
		t.Errorf("the fork after a store hit allocated %d bytes of fresh tables, want 0", got)
	}
}

// TestMeasureRunOwnsSamples: a result keeps the samples of its own window
// after the socket that produced them measures another sampled window,
// and the streaming hook observes only the window it was installed for.
func TestMeasureRunOwnsSamples(t *testing.T) {
	spec := RunSpec{Benchmark: "tomcat", Policy: "pdip44", Warmup: 10_000, Measure: 20_000, SampleEvery: 5_000}
	s, err := core.NewSocket(tenantsFor(t, []RunSpec{spec}), core.SocketConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	if err := s.Run(spec.Warmup); err != nil {
		t.Fatal(err)
	}
	hooked := 0
	first, err := measureRun(s, []RunSpec{spec}, spec.Measure, func(metrics.Sample) { hooked++ })
	if err != nil {
		t.Fatal(err)
	}
	got := first[0].Samples
	if len(got) != 4 || hooked != 4 {
		t.Fatalf("%d samples, %d hook calls; want 4 of each", len(got), hooked)
	}
	want := make([]metrics.Sample, len(got))
	for i, smp := range got {
		want[i] = metrics.Sample{Instructions: smp.Instructions, Metrics: metrics.Snapshot{
			Counters: map[string]uint64{}, Gauges: map[string]float64{}}}
		for k, v := range smp.Metrics.Counters {
			want[i].Metrics.Counters[k] = v
		}
		for k, v := range smp.Metrics.Gauges {
			want[i].Metrics.Gauges[k] = v
		}
	}

	other := spec
	other.Measure, other.SampleEvery = 30_000, 3_000
	if _, err := measureRun(s, []RunSpec{other}, other.Measure, nil); err != nil {
		t.Fatal(err)
	}
	if hooked != 4 {
		t.Errorf("the hook of the first window saw %d samples, want 4", hooked)
	}
	for i := range want {
		if got[i].Instructions != want[i].Instructions {
			t.Fatalf("sample %d now at %d instructions, want %d", i, got[i].Instructions, want[i].Instructions)
		}
		if diff := got[i].Metrics.Diff(want[i].Metrics); len(diff) > 0 {
			t.Fatalf("sample %d changed after the core measured another window: %s", i, diff[0])
		}
	}
}
