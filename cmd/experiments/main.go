// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run fig10                # one artifact
//	experiments -run all                  # everything (minutes)
//	experiments -run fig9 -quick          # reduced instruction budgets
//	experiments -run fig10 -benchmarks cassandra,tpcc,verilator
//	experiments -run fig10 -metrics runs.json   # dump every run's registry
//	experiments -record-trace traces -benchmarks kafka,tomcat
//	experiments -run fig10 -trace traces -trace-differential
//	experiments -run fig10 -fabric-workers 4      # distribute cells over a localhost fleet
//	experiments -run fig10 -shard 0/4             # static benchmark shard (no coordinator)
//	experiments -list
//	experiments -list-benchmarks
//	experiments -list-policies
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pdip"
	"pdip/internal/fabric"
	"pdip/internal/profiling"
	"pdip/internal/recycle"
)

func main() {
	var (
		run      = flag.String("run", "", "experiment id (fig1, fig3, fig4, fig9, fig10, fig11, tab4, fig12, fig13, tab5, fig14, fig15, fig16) or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		quick    = flag.Bool("quick", false, "reduced instruction budgets (smoke scale)")
		warmup   = flag.Uint64("warmup", 0, "override warmup instructions")
		measure  = flag.Uint64("measure", 0, "override measured instructions")
		benchCSV = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 16)")
		metrics  = flag.String("metrics", "", "after the experiment, write every executed run's full metrics registry as JSON to this path, keyed by benchmark/policy")
		listB    = flag.Bool("list-benchmarks", false, "print Table 2 benchmark registry and exit")
		listP    = flag.Bool("list-policies", false, "print Table 3 policy registry and exit")
		noFF     = flag.Bool("no-fast-forward", false, "step every cycle instead of fast-forwarding idle windows (metrics are bit-identical either way)")
		ckDir    = flag.String("checkpoint-dir", "", "cache warm simulator states in this directory (content-addressed), so repeat invocations skip warmup")
		ckGCMB   = flag.Int64("checkpoint-gc-mb", 0, "after the experiment, delete oldest checkpoints until -checkpoint-dir is under this many MiB (0 = never collect)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile covering every run to this path")
		memProf  = flag.String("memprofile", "", "write a post-experiment heap profile to this path")
		traceDir = flag.String("trace", "", "drive every run from ChampSim traces in this directory (<benchmark>.champsim or .champsim.gz) instead of the synthetic walker")
		traceDif = flag.Bool("trace-differential", false, "with -trace: cross-check every decoded instruction against the synthetic walker; any divergence fails the run")
		recDir   = flag.String("record-trace", "", "record every selected benchmark's synthetic stream as gzipped ChampSim traces into this directory and exit")
		fabricN  = flag.Int("fabric-workers", 0, "distribute every run over this many in-process fabric workers sharing -checkpoint-dir (0 = run locally)")
		shard    = flag.String("shard", "", "run only the i-th of n static benchmark shards ('i/n') — the coordinator-free way to split a grid across machines")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
	}()

	// Discovery flags mirror cmd/pdipsim, so the grids an experiment can
	// sweep (-benchmarks subsets, policy columns) are enumerable here too.
	if *listB {
		fmt.Printf("%-16s %-12s %s\n", "BENCHMARK", "SUITE", "DESCRIPTION")
		for _, p := range pdip.Benchmarks() {
			fmt.Printf("%-16s %-12s %s\n", p.Name, p.Suite, p.Description)
		}
		return
	}
	if *listP {
		fmt.Printf("%-24s %s\n", "POLICY", "DESCRIPTION")
		for _, p := range pdip.Policies() {
			fmt.Printf("%-24s %s\n", p.Name, p.Description)
		}
		return
	}

	if *list || (*run == "" && *recDir == "") {
		fmt.Println("available experiments:")
		for _, e := range pdip.Experiments() {
			fmt.Printf("  %-6s %s\n", e.ID, e.Title)
		}
		return
	}

	o := pdip.DefaultOptions()
	if *quick {
		o = pdip.QuickOptions()
	}
	if *warmup > 0 {
		o.Warmup = *warmup
	}
	if *measure > 0 {
		o.Measure = *measure
	}
	if *benchCSV != "" {
		o.Benchmarks = strings.Split(*benchCSV, ",")
	}
	if *shard != "" {
		i, n, err := fabric.ParseShard(*shard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		benches := o.Benchmarks
		if len(benches) == 0 {
			benches = pdip.BenchmarkNames()
		}
		o.Benchmarks = fabric.Shard(benches, i, n)
		if len(o.Benchmarks) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: shard %s of %d benchmarks is empty\n", *shard, len(benches))
			return
		}
	}
	o.NoFastForward = *noFF
	o.TraceDir = *traceDir
	o.TraceDifferential = *traceDif

	if *recDir != "" {
		if err := recordTraces(o, *recDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	var ck *pdip.CheckpointDir
	if *ckDir != "" {
		ck = pdip.NewCheckpointDir(*ckDir, 0)
		defer gcCheckpoints(ck, *ckGCMB)
	}
	runner := pdip.NewRunnerWithDir(0, ck)
	var fleet *fabric.Fleet
	if *fabricN > 0 {
		// Route every cache-missing run through a localhost fleet whose
		// workers share -checkpoint-dir's store; the experiment code is
		// unchanged, and each warm tuple is decoded once per process.
		fleet = fabric.StartFleetWithDir(*fabricN, 1, ck, fabric.Config{})
		defer fleet.Close()
		runner.SetExecutor(fleet.Exec)
	}
	if *run == "all" {
		for _, e := range pdip.Experiments() {
			out, err := e.Run(runner, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", e.ID+":", err)
				os.Exit(1)
			}
			fmt.Println("== " + e.Title + " ==")
			fmt.Println(out)
		}
		dumpMetrics(runner, *metrics)
		reportStats(runner, fleet)
		return
	}
	e, err := pdip.ExperimentByID(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	out, err := e.Run(runner, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Println("== " + e.Title + " ==")
	fmt.Println(out)
	dumpMetrics(runner, *metrics)
	reportStats(runner, fleet)
}

// recordTraces exports every selected benchmark's synthetic instruction
// stream into dir as <benchmark>.champsim.gz, sized to the options'
// warmup+measure budget plus no-wrap slack — ready for a later run with
// -trace pointed at the same directory.
func recordTraces(o pdip.Options, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	benches := o.Benchmarks
	if len(benches) == 0 {
		benches = pdip.BenchmarkNames()
	}
	for _, b := range benches {
		spec := pdip.RunSpec{Benchmark: b, Policy: "baseline", Warmup: o.Warmup, Measure: o.Measure}
		path := filepath.Join(dir, b+".champsim.gz")
		if err := pdip.RecordTrace(spec, path, 0); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "experiments: recorded %s -> %s\n", b, path)
	}
	return nil
}

// reportStats summarises execution and warm-state reuse on stderr, once,
// from the Runner.Stats() accessor (plus the fleet's aggregate when the
// runs were distributed): runs executed vs memoised, and how warmups were
// served — simulated, in-memory, or forked from the on-disk store.
func reportStats(runner *pdip.Runner, fleet *fabric.Fleet) {
	s := runner.Stats()
	if fleet != nil {
		// The local runner only memoises; the workers executed. Report
		// the cluster-wide counters the coordinator aggregated.
		fs := fleet.Stats()
		fmt.Fprintf(os.Stderr,
			"experiments: fabric: %d cells over %d workers (%d completed, %d failed, %d retries, %d re-queues)\n",
			fs.Cells, fs.Workers, fs.Completed, fs.Failed, fs.Retries, fs.Requeues)
		s.RunsExecuted = fs.Runner.RunsExecuted
		s.Checkpoint = fs.Runner.Checkpoint
	}
	if s.RunsExecuted == 0 && s.CacheHits == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "experiments: runs: %d executed, %d memoisation hits\n", s.RunsExecuted, s.CacheHits)
	tables := recycle.Stats()
	built := fmt.Sprintf("tables built in this process: %.1f MiB recycled, %.1f MiB fresh, %.1f MiB of programs off-heap",
		float64(tables.Recycled)/(1<<20), float64(tables.Fresh)/(1<<20), float64(tables.OffHeap)/(1<<20))
	if runner.CheckpointDir() == nil {
		// Without -checkpoint-dir the runner (and every fleet worker)
		// has no store: each run warms and measures on one socket.
		fmt.Fprintf(os.Stderr, "experiments: checkpoints: no store (no -checkpoint-dir), every run warmed and measured on one socket; %s\n", built)
		return
	}
	ck := s.Checkpoint
	if ck.Forks == 0 {
		return
	}
	fmt.Fprintf(os.Stderr,
		"experiments: checkpoints: %d forked runs from %d simulated warmups (%d in-memory hits, %d store-cache forks, %d disk hits, %d disk stores, %d failed stores); %s\n",
		ck.Forks, ck.WarmupsExecuted, ck.MemoryHits, ck.DirCacheHits, ck.DiskHits, ck.DiskStores, ck.DiskStoreFailures, built)
}

// gcCheckpoints trims the warm-state store to maxMB mebibytes, oldest
// checkpoints first, after the experiment's stores have landed. A zero
// budget disables collection.
func gcCheckpoints(ck *pdip.CheckpointDir, maxMB int64) {
	if maxMB <= 0 {
		return
	}
	n, freed, err := ck.GC(maxMB << 20)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: checkpoint-gc:", err)
		return
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "experiments: checkpoint-gc: removed %d checkpoints (%.1f MiB) from %s\n",
			n, float64(freed)/(1<<20), ck.Path())
	}
}

// dumpMetrics writes every memoised run's full metric snapshot to path as
// one JSON object keyed by "benchmark/policy" spec keys.
func dumpMetrics(runner *pdip.Runner, path string) {
	if path == "" {
		return
	}
	all := make(map[string]pdip.Snapshot)
	for _, res := range runner.Results() {
		all[res.Spec.Key()] = res.Metrics
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote metrics for %d runs to %s\n", len(all), path)
}
