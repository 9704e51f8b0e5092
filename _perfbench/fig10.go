package main

import (
	"fmt"
	"runtime/debug"

	"pdip/internal/harness"
	"pdip/internal/workload"
)

// fig10 regenerates Figure 10 the way users do: Experiment("fig10").Run on
// a Runner with no checkpoint directory, over all 16 benchmarks at reduced
// budgets. The experiment issues its 112 distinct cells (16 benchmarks ×
// baseline + six policies) one at a time; the Runner warms each cell's
// tuple, keeps the warm state, forks it and measures. Core simulation is
// nearly all of each cell and the checkpoint codec and fabric are
// bypassed, so this workload moves with pipeline, predictor, cache and
// prefetcher speed and should not move with codec or fabric work.
//
// The entry point takes no RunSpec.Seed, so the seed only permutes the
// benchmark order.
type fig10 struct {
	exp     harness.Experiment
	opts    harness.Options
	benches []string
}

const (
	fig10Warmup  = 30_000
	fig10Measure = 80_000
	// fig10Verify is how many cells the verdict re-runs from scratch.
	fig10Verify = 6
)

func (f *fig10) init(b *bench) error {
	exp, err := harness.ExperimentByID("fig10")
	if err != nil {
		return err
	}
	names := workload.Names()
	f.benches = make([]string, len(names))
	for i, j := range b.rng.Perm(len(names)) {
		f.benches[i] = names[j]
	}
	f.exp = exp
	f.opts = harness.Options{Warmup: fig10Warmup, Measure: fig10Measure, Benchmarks: f.benches}
	return nil
}

// fig10Cell is one cell the experiment issued, in issue order.
type fig10Cell struct {
	spec harness.RunSpec
	res  *harness.RunResult
}

// pass runs the experiment once on a fresh Runner. Every cell the
// experiment issues goes through the executor hook, which times
// Runner.ExecuteJob and checks the result.
func (f *fig10) pass(b *bench, p *phase) (cells []fig10Cell, table string, st harness.RunnerStats) {
	r := harness.NewRunner(0)
	r.SetExecutor(func(spec harness.RunSpec) (*harness.RunResult, error) {
		var res *harness.RunResult
		err := p.cell(func() error {
			var err error
			if res, err = r.ExecuteJob(spec, nil); err == nil {
				err = checkCell(spec, res)
			}
			return err
		})
		cells = append(cells, fig10Cell{spec, res})
		return res, err
	})
	table, err := f.exp.Run(r, f.opts)
	if err != nil {
		b.fail("fig10: %v", err)
	}
	return cells, table, r.Stats()
}

func (f *fig10) timed(b *bench) (*phase, error) {
	if err := f.init(b); err != nil {
		return nil, err
	}
	p := &phase{}
	for i := 0; i < setupReps; i++ {
		if err := p.timeSetup(func() error { return genPrograms(f.benches, i == 0) }); err != nil {
			return nil, err
		}
	}

	var first []fig10Cell
	var firstTable string
	passes := 0
	p.measure(func() {
		for !p.done(b) && b.ok() {
			// Each pass stands for one run of the experiments command, a
			// new process: the last pass's Runner and its warm states are
			// returned to the OS first, so peak RSS does not depend on how
			// many passes fit in the phase.
			debug.FreeOSMemory()
			cells, table, _ := f.pass(b, p)
			if passes == 0 {
				first, firstTable = cells, table
			} else if table != firstTable {
				b.fail("fig10 pass %d printed a different table than pass 1", passes+1)
			}
			passes++
		}
	})
	fmt.Printf("fig10-grid: %d passes, %d cells in %.2fs\n", passes, p.attempted, p.elapsed)
	b.endToEnd(p)

	if len(first) < minCells {
		b.fail("fig10 issued %d cells, want at least %d", len(first), minCells)
		return p, nil
	}
	got := map[harness.RunSpec]*harness.RunResult{}
	var specs []harness.RunSpec
	for _, i := range b.sample(len(first), fig10Verify) {
		specs = append(specs, first[i].spec)
		got[first[i].spec] = first[i].res
	}
	return p, b.verifyScratch(specs, got)
}

func (f *fig10) traced(b *bench) error {
	if err := f.init(b); err != nil {
		return err
	}
	t := b.tr
	if err := genPrograms(f.benches, true); err != nil {
		return err
	}
	if err := t.programs(f.benches); err != nil {
		return err
	}

	// The untraced reference: one pass, as in the timed phase.
	p := &phase{}
	cells, _, st := f.pass(b, p)
	if !b.ok() {
		return nil
	}

	// The same cells, one at a time, through the layers' public calls:
	// the Runner's warmup (build, run, snapshot) then its fork (restore,
	// measure, metrics snapshot); then the cell untraced through
	// Runner.ExecuteJob on a fresh Runner.
	for _, cell := range cells {
		spec := cell.spec
		t.startCell()
		var res *harness.RunResult
		_, err := t.do("cell", func() error {
			prog, c, err := t.config(spec)
			if err != nil {
				return err
			}
			co, err := t.build(prog, c)
			if err != nil {
				return err
			}
			if err := t.run("core.warmup", co, spec.Warmup); err != nil {
				return err
			}
			st, err := t.snapshot(co)
			if err != nil {
				return err
			}
			prog, c, err = t.config(spec)
			if err != nil {
				return err
			}
			fork, err := t.restore(prog, c, st)
			if err != nil {
				return err
			}
			res, err = t.measure(fork, spec)
			return err
		})
		if err != nil {
			return fmt.Errorf("traced %s: %w", spec.Key(), err)
		}
		if d := sameResult(res, cell.res); d != "" {
			b.fail("traced %s differs from the untraced run: %s", spec.Key(), d)
		}
		if _, err := t.do("harness.job", func() error {
			_, err := harness.NewRunner(1).ExecuteJob(spec, nil)
			return err
		}); err != nil {
			return err
		}
	}

	b.commonLayers()
	b.layer("harness.forks", float64(st.Checkpoint.Forks))
	b.layer("harness.warmups", float64(st.Checkpoint.WarmupsExecuted))
	b.layer("harness.memo_hits", float64(st.CacheHits))
	b.layer("split.core_frac", frac(t.inCells("core.build", "core.warmup", "core.measure")))
	b.layer("split.ckpt_fabric_frac", frac(t.inCells("checkpoint.restore")))
	return nil
}
