package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"pdip/internal/checkpoint"
	"pdip/internal/fabric"
	"pdip/internal/harness"
)

// fleet is the edit-rerun loop against a warm -checkpoint-dir, served the
// way gridd serves it. Set-up warms every benchmark × policy × BTB tuple at
// the default warmup into a fresh store. The timed phase is a series of
// reruns: each opens a new checkpoint.Dir on the store, so its decoded
// cache starts empty as in a new process, starts a fleet of two one-slot
// workers and sends it every short measure-phase variant of every tuple,
// one at a time. With windows this short, loading, decoding and restoring
// warm state plus the fabric round trip are a large share of each cell,
// so codec, store-cache and protocol changes show here; writes (snapshot,
// encode, save) land in setup_s and reads in the timed metrics. Cells go
// one at a time because with two in flight on a two-CPU host, throughput
// moved by more than a quarter between identical sets of runs.
//
// No cell carries RunSpec.Seed: the Runner and fabric path warms every
// seed as seed 0, so timing seeded cells would time less work than a
// correct program does. The seed orders the cells.
type fleet struct {
	tuples []harness.RunSpec // warm tuples: Warmup set, Measure 0
	store  string            // the warm store the timed phase reads
}

var (
	fleetBenches  = []string{"kafka", "tomcat"}
	fleetPolicies = []string{"baseline", "pdip44"}
	fleetBTBs     = []int{0, 2048}
	// fleetWindows are the measured windows every tuple is run at, each
	// once without sampling and once sampled four times.
	fleetWindows = []uint64{2_000, 3_000, 4_000, 6_000, 10_000}
)

const (
	fleetWarmup  = 300_000 // harness.DefaultOptions().Warmup
	fleetWorkers = 2
	// fleetVerify is how many cells of each kind (sampled, unsampled) the
	// verdict re-runs from scratch.
	fleetVerify = 2
)

func (f *fleet) init(b *bench) {
	for _, bn := range fleetBenches {
		for _, pol := range fleetPolicies {
			for _, btb := range fleetBTBs {
				f.tuples = append(f.tuples, harness.RunSpec{
					Benchmark: bn, Policy: pol, BTBEntries: btb, Warmup: fleetWarmup,
				})
			}
		}
	}
	f.store = filepath.Join(b.work, "store")
}

// rerun lists one rerun's cells: every window of every tuple, sampled and
// not, in a seed-chosen order in which consecutive cells never share a
// tuple, so that no two cells in a row fork the same warm state.
func (f *fleet) rerun(rng *rand.Rand) []harness.RunSpec {
	per := make([][]harness.RunSpec, len(f.tuples))
	for i, tup := range f.tuples {
		for _, w := range fleetWindows {
			for _, every := range []uint64{0, w / 4} {
				s := tup
				s.Measure, s.SampleEvery = w, every
				per[i] = append(per[i], s)
			}
		}
		rng.Shuffle(len(per[i]), func(a, b int) { per[i][a], per[i][b] = per[i][b], per[i][a] })
	}
	var out []harness.RunSpec
	last := -1
	for round := range per[0] {
		order := rng.Perm(len(f.tuples))
		if order[0] == last {
			order[0], order[len(order)-1] = order[len(order)-1], order[0]
		}
		for _, i := range order {
			out = append(out, per[i][round])
		}
		last = order[len(order)-1]
	}
	return out
}

// setup warms every tuple into a fresh store at dir: program generation
// (genPrograms) plus, per tuple, the Runner's warmup, snapshot and
// Dir.Save. ExecuteJob also forks and measures a 1000-instruction window,
// which costs little against the warmup.
func (f *fleet) setup(first bool, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := genPrograms(fleetBenches, first); err != nil {
		return err
	}
	r := harness.NewRunnerWithDir(1, checkpoint.NewDir(dir, 0))
	for _, tup := range f.tuples {
		spec := tup
		spec.Measure = 1000
		if _, err := r.ExecuteJob(spec, nil); err != nil {
			return fmt.Errorf("warm %s: %w", spec.Key(), err)
		}
	}
	if st := r.Stats().Checkpoint; st.DiskStores != uint64(len(f.tuples)) {
		return fmt.Errorf("set-up stored %d warm states, want %d", st.DiskStores, len(f.tuples))
	}
	return nil
}

// fleetRun is one rerun's cells and results, in send order.
type fleetRun struct {
	specs   []harness.RunSpec
	results []*harness.RunResult
	stats   fabric.Stats
}

// send runs one rerun: a new Dir on the store, a new fleet, every cell
// one at a time, then the fleet is closed.
func (f *fleet) send(b *bench, p *phase) *fleetRun {
	fr := &fleetRun{specs: f.rerun(b.rng)}
	fr.results = make([]*harness.RunResult, len(fr.specs))
	fl := fabric.StartFleetWithDir(fleetWorkers, 1, checkpoint.NewDir(f.store, 0), fabric.Config{})
	for i, spec := range fr.specs {
		err := p.cell(func() error {
			res, err := fl.Exec(spec)
			if err == nil {
				err = checkCell(spec, res)
			}
			fr.results[i] = res
			return err
		})
		if err != nil {
			b.fail("fleet cell %s: %v", spec.Key(), err)
		}
	}
	fl.Close()
	fr.stats = fl.Stats()
	return fr
}

func (f *fleet) timed(b *bench) (*phase, error) {
	f.init(b)
	p := &phase{}
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		if err := p.timeSetup(func() error { return f.setup(i == 0, dir) }); err != nil {
			return nil, err
		}
		if i == setupReps-1 {
			if err := os.Rename(dir, f.store); err != nil {
				return nil, err
			}
		} else if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	var first *fleetRun
	var total fabric.Stats
	reruns := 0
	p.measure(func() {
		for !p.done(b) && b.ok() {
			fr := f.send(b, p)
			if first == nil {
				first = fr
			}
			total.Failed += fr.stats.Failed
			total.Runner.Add(fr.stats.Runner)
			reruns++
		}
	})
	fmt.Printf("warmstore-fleet: %d reruns, %d cells in %.2fs; %d warmups, %d forks, %d fabric failures\n",
		reruns, p.attempted, p.elapsed, total.Runner.Checkpoint.WarmupsExecuted, total.Runner.Checkpoint.Forks, total.Failed)
	b.endToEnd(p)
	if !b.ok() {
		return p, nil
	}
	return p, f.verify(b, first)
}

// verify re-runs a seed-chosen sample of the first rerun's cells from
// scratch, and merges one cell per tuple the way gridd does, requiring
// the same bytes as a serial Runner over the same store.
func (f *fleet) verify(b *bench, fr *fleetRun) error {
	got := map[harness.RunSpec]*harness.RunResult{}
	var sampled, plain []int
	for i, s := range fr.specs {
		got[s] = fr.results[i]
		if s.SampleEvery > 0 {
			sampled = append(sampled, i)
		} else {
			plain = append(plain, i)
		}
	}
	var specs []harness.RunSpec
	for _, kind := range [][]int{sampled, plain} {
		for _, j := range b.sample(len(kind), fleetVerify) {
			specs = append(specs, fr.specs[kind[j]])
		}
	}
	if err := b.verifyScratch(specs, got); err != nil {
		return err
	}

	// One cell per tuple: cell keys name the tuple, not the window.
	var merged []*harness.RunResult
	var mspecs []harness.RunSpec
	seen := map[string]bool{}
	for _, i := range b.rng.Perm(len(fr.specs)) {
		if k := fr.specs[i].Key(); !seen[k] {
			seen[k] = true
			mspecs = append(mspecs, fr.specs[i])
			merged = append(merged, fr.results[i])
		}
	}
	fleetDoc, err := mergedBytes(merged)
	if err != nil {
		return err
	}
	serial, err := harness.NewRunnerWithDir(1, checkpoint.NewDir(f.store, 0)).RunAll(mspecs)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	serialDoc, err := mergedBytes(serial)
	if err != nil {
		return err
	}
	if !bytes.Equal(fleetDoc, serialDoc) {
		b.fail("merged document of %d fleet cells differs from the serial Runner's", len(mspecs))
		return nil
	}
	fmt.Printf("verify: merged document of %d cells (%d bytes) matches the serial Runner\n", len(mspecs), len(fleetDoc))
	return nil
}

func mergedBytes(results []*harness.RunResult) ([]byte, error) {
	cells, err := fabric.Merge(results)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := fabric.WriteMerged(&buf, cells); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// countConn counts the bytes and newline-delimited messages crossing a
// worker's connection, both ways.
type countConn struct {
	net.Conn
	bytes, msgs *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.count(p[:n])
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.count(p[:n])
	return n, err
}

func (c countConn) count(p []byte) {
	c.bytes.Add(int64(len(p)))
	c.msgs.Add(int64(bytes.Count(p, []byte{'\n'})))
}

// tracedFleet is a fleet assembled from the fabric's public pieces, with
// every worker connection wrapped in a countConn.
type tracedFleet struct {
	coord       *fabric.Coordinator
	runners     []*harness.Runner // one per worker
	wg          sync.WaitGroup
	bytes, msgs atomic.Int64
}

func startTracedFleet(d *checkpoint.Dir) *tracedFleet {
	tf := &tracedFleet{coord: fabric.NewCoordinator(fabric.Config{})}
	for i := 0; i < fleetWorkers; i++ {
		cend, wend := net.Pipe()
		w := &fabric.Worker{Name: fmt.Sprintf("w%d", i+1), Runner: harness.NewRunnerWithDir(1, d), Slots: 1}
		tf.runners = append(tf.runners, w.Runner)
		tf.wg.Add(2)
		go func() {
			defer tf.wg.Done()
			tf.coord.HandleConn(cend)
		}()
		go func() {
			defer tf.wg.Done()
			w.Run(countConn{Conn: wend, bytes: &tf.bytes, msgs: &tf.msgs})
		}()
	}
	return tf
}

func (tf *tracedFleet) close() {
	tf.coord.Close()
	tf.wg.Wait()
}

// forks returns how many cells each worker has forked so far; every cell
// a worker runs is one fork.
func (tf *tracedFleet) forks() []uint64 {
	n := make([]uint64, len(tf.runners))
	for i, r := range tf.runners {
		n[i] = r.Stats().Checkpoint.Forks
	}
	return n
}

// loads returns how many warm states the workers have loaded from the
// store, from disk or from the Dir's cache.
func (tf *tracedFleet) loads() uint64 {
	var n uint64
	for _, r := range tf.runners {
		st := r.Stats().Checkpoint
		n += st.DiskHits + st.DirCacheHits
	}
	return n
}

func (f *fleet) traced(b *bench) error {
	f.init(b)
	t := b.tr

	// The untraced reference: the harness warms the store, then reruns as
	// in the timed phase until at least minCells cells have run.
	if err := f.setup(true, f.store); err != nil {
		return err
	}
	var refs []*fleetRun
	for n := 0; n < minCells; n += len(refs[len(refs)-1].specs) {
		refs = append(refs, f.send(b, &phase{}))
		if !b.ok() {
			return nil
		}
	}

	// Traced set-up into a second store, through the layers: program
	// generation, then per tuple build, warmup, snapshot, encode, save.
	if err := t.programs(fleetBenches); err != nil {
		return err
	}
	tstore := filepath.Join(b.work, "traced-store")
	d := checkpoint.NewDir(tstore, 0)
	for _, tup := range f.tuples {
		prog, c, err := t.config(tup)
		if err != nil {
			return err
		}
		co, err := t.build(prog, c)
		if err != nil {
			return err
		}
		if err := t.run("core.warmup", co, tup.Warmup); err != nil {
			return err
		}
		st, err := t.snapshot(co)
		if err != nil {
			return err
		}
		var enc bytes.Buffer
		s, err := t.do("checkpoint.encode", func() error { return checkpoint.Encode(&enc, st) })
		if err != nil {
			return err
		}
		s.Bytes = int64(enc.Len())
		key, err := storeKey(tup, c)
		if err != nil {
			return err
		}
		if _, err := t.do("checkpoint.save", func() error { return d.Save(key, st) }); err != nil {
			return err
		}
		// The harness must have filed the same bytes under the same key.
		if want, err := os.ReadFile(filepath.Join(f.store, key+".ckpt")); err != nil || !bytes.Equal(want, enc.Bytes()) {
			b.fail("%s: the harness's store holds no identical checkpoint under the re-composed key (%v)", tup.Key(), err)
		}
	}

	var fabricNs, wireBytes, msgs int64
	var rs harness.RunnerStats
	var fs fabric.Stats
	for _, ref := range refs {
		tf, ns, err := f.tracedRerun(b, tstore, ref)
		if err != nil {
			return err
		}
		fabricNs += ns
		wireBytes += tf.bytes.Load()
		msgs += tf.msgs.Load()
		st := tf.coord.Stats()
		fs.Retries += ref.stats.Retries + st.Retries
		fs.Requeues += ref.stats.Requeues + st.Requeues
		fs.Failed += ref.stats.Failed + st.Failed
		rs.Add(ref.stats.Runner)
	}

	b.commonLayers()
	n := float64(t.cells)
	var loads, hits int
	var diskNs, cachedNs int64
	t.each("checkpoint.load", func(s *span) {
		loads++
		if s.Cached {
			hits++
			cachedNs += s.ns()
		} else {
			diskNs += s.ns()
		}
	})
	if loads > hits {
		b.layer("checkpoint.load_disk_ms", float64(diskNs)/float64(loads-hits)/1e6)
	}
	if hits > 0 {
		b.layer("checkpoint.load_cached_ms", float64(cachedNs)/float64(hits)/1e6)
	}
	b.layer("checkpoint.loads", float64(loads))
	b.layer("checkpoint.cache_hit_ratio", float64(hits)/float64(loads))
	b.layer("checkpoint.encode_ms", t.meanMs("checkpoint.encode"))
	b.layer("checkpoint.save_ms", t.meanMs("checkpoint.save"))
	var stateBytes int64
	t.each("checkpoint.encode", func(s *span) { stateBytes += s.Bytes })
	b.layer("checkpoint.state_kb", float64(stateBytes)/float64(len(f.tuples))/1024)

	b.layer("harness.forks", float64(rs.Checkpoint.Forks))
	b.layer("harness.warmups", float64(rs.Checkpoint.WarmupsExecuted))
	b.layer("harness.memo_hits", float64(rs.CacheHits))

	b.layer("fabric.overhead_ms", float64(fabricNs)/n/1e6)
	b.layer("fabric.wire_kb_per_cell", float64(wireBytes)/n/1024)
	b.layer("fabric.msgs_per_cell", float64(msgs)/n)
	b.layer("fabric.retries", float64(fs.Retries))
	b.layer("fabric.requeues", float64(fs.Requeues))
	b.layer("fabric.failed", float64(fs.Failed))
	// A cell's time here is its traced layer calls plus its share of the
	// fabric's overhead.
	coreNs, cellNs := t.inCells("core.measure")
	ckptNs, _ := t.inCells("checkpoint.load", "checkpoint.restore")
	b.layer("split.core_frac", frac(coreNs, cellNs+fabricNs))
	b.layer("split.ckpt_fabric_frac", frac(ckptNs+fabricNs, cellNs+fabricNs))
	return nil
}

// tracedRerun sends one reference rerun's cells one at a time through a
// traced fleet on a fresh Dir over the traced store, as a new process
// would, and replays each through the layers on the worker that ran it:
// the worker's first cell of a tuple loads the warm state (from disk or
// from the Dir's cache), later ones reuse it in memory as the worker's
// Runner does; then restore, measure and snapshot. Each cell then runs
// through a local Runner.ExecuteJob on the fleet's Dir, whose time taken
// from the fleet's is the fabric's overhead. It returns the closed fleet,
// whose counters cover the rerun, and the summed overhead.
func (f *fleet) tracedRerun(b *bench, tstore string, ref *fleetRun) (*tracedFleet, int64, error) {
	t := b.tr
	d := checkpoint.NewDir(tstore, 0)
	tf := startTracedFleet(d)
	defer tf.close()
	local := harness.NewRunnerWithDir(1, d)
	// The replay loads through a Dir of its own, so that its loads hit the
	// disk and the Dir's cache as the workers' do on theirs.
	rd := checkpoint.NewDir(tstore, 0)
	warm := make([]map[string]*checkpoint.State, fleetWorkers)
	for w := range warm {
		warm[w] = map[string]*checkpoint.State{}
	}
	var fabricNs int64
	loads := 0
	for i, spec := range ref.specs {
		t.startCell()
		before := tf.forks()
		var viaFleet *harness.RunResult
		exec, err := t.do("fabric.exec", func() error {
			var err error
			viaFleet, err = tf.coord.Submit(spec).Wait()
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("traced fleet %s: %w", spec.Key(), err)
		}
		if diff := sameResult(viaFleet, ref.results[i]); diff != "" {
			b.fail("traced fleet %s differs from the untraced run: %s", spec.Key(), diff)
		}
		ran := -1
		for w, n := range tf.forks() {
			if n > before[w] {
				ran = w
			}
		}
		if ran < 0 {
			return nil, 0, fmt.Errorf("traced fleet %s: no worker forked the cell", spec.Key())
		}

		var res *harness.RunResult
		_, err = t.do("cell", func() error {
			prog, c, err := t.config(spec)
			if err != nil {
				return err
			}
			wspec := spec
			wspec.Measure, wspec.SampleEvery = 0, 0
			key, err := storeKey(wspec, c)
			if err != nil {
				return err
			}
			st := warm[ran][key]
			if st == nil {
				var cached bool
				s, err := t.do("checkpoint.load", func() error {
					var err error
					st, cached, err = rd.Load(key)
					return err
				})
				if err != nil {
					return err
				}
				if st == nil {
					return fmt.Errorf("no warm state under the re-composed key")
				}
				s.Cached = cached
				warm[ran][key] = st
				loads++
			}
			co, err := t.restore(prog, c, st)
			if err != nil {
				return err
			}
			res, err = t.measure(co, spec)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("traced %s: %w", spec.Key(), err)
		}
		if diff := sameResult(res, ref.results[i]); diff != "" {
			b.fail("traced %s (measure %d) differs from the untraced run: %s", spec.Key(), spec.Measure, diff)
		}

		job, err := t.do("harness.job", func() error {
			_, err := local.ExecuteJob(spec, nil)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		fabricNs += exec.ns() - job.ns()
	}
	if got := tf.loads(); got != uint64(loads) {
		b.fail("the traced replay loaded %d warm states, the fleet's workers %d", loads, got)
	}
	return tf, fabricNs, nil
}
