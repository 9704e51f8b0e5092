// Command gridd runs the distributed experiment fabric: a coordinator
// that shards a benchmark×policy×BTB×seed grid over workers which share
// warm state through a content-addressed checkpoint directory, plus a
// self-contained localhost mode.
//
// Usage:
//
//	gridd run -grid smoke -workers 4              # localhost fleet, one process
//	gridd run -grid fig10 -workers 0 -out a.json  # serial reference (Runner.RunAll)
//	gridd serve -addr :7070 -grid grid.json -out merged.json
//	gridd work -connect host:7070 -parallel 2 -checkpoint-dir /shared/ck
//
// Grids are JSON files (see internal/fabric.Grid) or the built-ins
// "fig10" (headline grid: all 16 benchmarks × baseline + Figure 10's six
// policy columns) and "smoke" (3 cells, seconds). A distributed run's
// merged document is byte-identical to a serial run of the same grid —
// `cmp` the -out files to audit a deployment.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"pdip/internal/checkpoint"
	"pdip/internal/fabric"
	"pdip/internal/harness"
	"pdip/internal/recycle"
	"pdip/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "work":
		err = workCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "gridd: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  gridd run   -grid <file|fig10|smoke> [-workers N] [-parallel N] [-checkpoint-dir d] [-checkpoint-gc-mb N] [-out f]
  gridd serve -addr host:port -grid <file|fig10|smoke> [-shard i/n] [-out f]
  gridd work  -connect host:port [-parallel N] [-name id] [-checkpoint-dir d] [-checkpoint-gc-mb N]
`)
	os.Exit(2)
}

// gridFlags are the grid-selection flags run and serve share.
type gridFlags struct {
	grid    *string
	shard   *string
	warmup  *uint64
	measure *uint64
}

func addGridFlags(fs *flag.FlagSet) *gridFlags {
	return &gridFlags{
		grid:    fs.String("grid", "", "grid JSON file, or built-in 'fig10' / 'smoke'"),
		shard:   fs.String("shard", "", "run only the i-th of n static shards of the grid ('i/n')"),
		warmup:  fs.Uint64("warmup", 0, "override the grid's warmup instruction budget"),
		measure: fs.Uint64("measure", 0, "override the grid's measured instruction budget"),
	}
}

// specs resolves the flags into the expanded (and possibly sharded) job
// list.
func (gf *gridFlags) specs() ([]harness.RunSpec, error) {
	if *gf.grid == "" {
		return nil, fmt.Errorf("missing -grid (a JSON file, or built-in 'fig10' / 'smoke')")
	}
	g, err := builtinGrid(*gf.grid)
	if err != nil {
		return nil, err
	}
	if *gf.warmup > 0 {
		g.Warmup = *gf.warmup
	}
	if *gf.measure > 0 {
		g.Measure = *gf.measure
	}
	specs, err := g.Specs()
	if err != nil {
		return nil, err
	}
	if *gf.shard != "" {
		i, n, err := fabric.ParseShard(*gf.shard)
		if err != nil {
			return nil, err
		}
		specs = fabric.Shard(specs, i, n)
	}
	return specs, nil
}

// builtinGrid resolves a -grid argument: the two built-in names, else a
// JSON file path.
func builtinGrid(name string) (fabric.Grid, error) {
	switch name {
	case "fig10":
		// The headline grid: every benchmark × baseline + Figure 10's
		// policy columns at the full experiment scale.
		return fabric.Grid{
			Benchmarks: workload.Names(),
			Policies: []string{"baseline", "eip46", "eip-analytical", "emissary",
				"pdip44", "pdip44+emissary", "pdip44-zerocost"},
			Warmup:  300_000,
			Measure: 1_000_000,
		}, nil
	case "smoke":
		// Three cells in seconds, with sample streaming on — the
		// `make fabric-smoke` byte-identity gate.
		return fabric.Grid{
			Benchmarks:  []string{"cassandra", "kafka", "tpcc"},
			Policies:    []string{"pdip44"},
			Warmup:      20_000,
			Measure:     60_000,
			SampleEvery: 30_000,
		}, nil
	default:
		return fabric.LoadGrid(name)
	}
}

// writeDoc merges results and writes the canonical document to path
// ("" or "-" = stdout).
func writeDoc(path string, results []*harness.RunResult) error {
	cells, err := fabric.Merge(results)
	if err != nil {
		return err
	}
	if path == "" || path == "-" {
		return fabric.WriteMerged(os.Stdout, cells)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fabric.WriteMerged(f, cells); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gridd: wrote %d merged cells to %s\n", len(results), path)
	return nil
}

// reportStats prints the coordinator's aggregate accounting once, after
// the grid completes.
func reportStats(st fabric.Stats) {
	fmt.Fprintf(os.Stderr,
		"gridd: %d cells: %d completed, %d failed, %d retries, %d re-queues across %d workers\n",
		st.Cells, st.Completed, st.Failed, st.Retries, st.Requeues, st.Workers)
	ck := st.Runner.Checkpoint
	tables := recycle.Stats()
	fmt.Fprintf(os.Stderr,
		"gridd: workers executed %d runs; checkpoints: %d forks from %d simulated warmups (%d memory hits, %d store-cache forks, %d disk hits, %d disk stores, %d failed stores); tables built in this process: %.1f MiB recycled, %.1f MiB fresh, %.1f MiB of programs off-heap\n",
		st.Runner.RunsExecuted, ck.Forks, ck.WarmupsExecuted, ck.MemoryHits, ck.DirCacheHits, ck.DiskHits, ck.DiskStores, ck.DiskStoreFailures,
		float64(tables.Recycled)/(1<<20), float64(tables.Fresh)/(1<<20), float64(tables.OffHeap)/(1<<20))
}

// gcStore trims the warm-state store to maxMB mebibytes, oldest
// checkpoints first. A zero budget disables collection.
func gcStore(ck *checkpoint.Dir, maxMB int64) {
	if ck == nil || maxMB <= 0 {
		return
	}
	n, freed, err := ck.GC(maxMB << 20)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridd: checkpoint-gc:", err)
		return
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "gridd: checkpoint-gc: removed %d checkpoints (%.1f MiB) from %s\n",
			n, float64(freed)/(1<<20), ck.Path())
	}
}

// runCmd is the self-contained localhost mode: a coordinator plus
// -workers in-process workers ( -workers 0 = serial Runner.RunAll, the
// byte-identity reference).
func runCmd(argv []string) error {
	fs := flag.NewFlagSet("gridd run", flag.ExitOnError)
	gf := addGridFlags(fs)
	workers := fs.Int("workers", 2, "fleet size (0 = run the grid serially in-process)")
	par := fs.Int("parallel", 1, "concurrent jobs per worker")
	ckDir := fs.String("checkpoint-dir", "", "shared warm-state checkpoint directory (default: private temp dir)")
	ckGCMB := fs.Int64("checkpoint-gc-mb", 0, "after the grid, delete oldest checkpoints until -checkpoint-dir is under this many MiB (0 = never collect)")
	out := fs.String("out", "", "write the merged-grid JSON document here (default stdout)")
	fs.Parse(argv)

	specs, err := gf.specs()
	if err != nil {
		return err
	}
	dir := *ckDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "gridd-ck-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	ck := checkpoint.NewDir(dir, 0)
	defer gcStore(ck, *ckGCMB)

	var results []*harness.RunResult
	if *workers <= 0 {
		runner := harness.NewRunnerWithDir(*par, ck)
		results, err = runner.RunAll(specs)
		if err != nil {
			return err
		}
		s := runner.Stats()
		fmt.Fprintf(os.Stderr, "gridd: serial: executed %d runs (%d cache hits)\n", s.RunsExecuted, s.CacheHits)
	} else {
		fleet := fabric.StartFleetWithDir(*workers, *par, ck, fabric.Config{})
		defer fleet.Close()
		results, err = fleet.RunGrid(specs)
		if err != nil {
			return err
		}
		reportStats(fleet.Stats())
	}
	fmt.Fprint(os.Stderr, fabric.SummaryTable(results))
	return writeDoc(*out, results)
}

// serveCmd runs the coordinator of a multi-process deployment: it listens
// for `gridd work` processes, distributes the grid, writes the merged
// document, and drains the fleet.
func serveCmd(argv []string) error {
	fs := flag.NewFlagSet("gridd serve", flag.ExitOnError)
	gf := addGridFlags(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "address to listen for workers on")
	out := fs.String("out", "", "write the merged-grid JSON document here (default stdout)")
	lease := fs.Duration("lease", 60*time.Second, "job lease: silent workers are re-queued after this")
	attempts := fs.Int("max-attempts", 3, "per-job assignment cap before a cell fails the grid")
	backoff := fs.Duration("backoff", 500*time.Millisecond, "retry backoff unit after a job failure")
	fs.Parse(argv)

	specs, err := gf.specs()
	if err != nil {
		return err
	}
	coord := fabric.NewCoordinator(fabric.Config{
		LeaseTimeout: *lease,
		MaxAttempts:  *attempts,
		RetryBackoff: *backoff,
	})
	defer coord.Close()
	l, err := coord.ListenAndServe(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gridd: coordinating %d cells; listening on %s\n", len(specs), l.Addr())

	results, err := coord.RunGrid(specs)
	if err != nil {
		return err
	}
	reportStats(coord.Stats())
	fmt.Fprint(os.Stderr, fabric.SummaryTable(results))
	return writeDoc(*out, results)
}

// workCmd runs one worker process against a remote coordinator,
// retrying the dial briefly so workers may start before the coordinator.
func workCmd(argv []string) error {
	fs := flag.NewFlagSet("gridd work", flag.ExitOnError)
	connect := fs.String("connect", "", "coordinator address (host:port)")
	par := fs.Int("parallel", 1, "concurrent jobs")
	name := fs.String("name", "", "worker name in coordinator accounting (default host:pid)")
	ckDir := fs.String("checkpoint-dir", "", "shared warm-state checkpoint directory")
	ckGCMB := fs.Int64("checkpoint-gc-mb", 0, "after the coordinator drains this worker, delete oldest checkpoints until -checkpoint-dir is under this many MiB (0 = never collect)")
	fs.Parse(argv)

	if *connect == "" {
		return fmt.Errorf("missing -connect host:port")
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	var conn net.Conn
	var err error
	for try := 0; try < 20; try++ {
		conn, err = net.Dial("tcp", *connect)
		if err == nil {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("connect %s: %w", *connect, err)
	}
	fmt.Fprintf(os.Stderr, "gridd: worker %s serving %s (%d slots)\n", *name, *connect, *par)
	var ck *checkpoint.Dir
	if *ckDir != "" {
		ck = checkpoint.NewDir(*ckDir, 0)
		defer gcStore(ck, *ckGCMB)
	}
	w := &fabric.Worker{
		Name:   *name,
		Runner: harness.NewRunnerWithDir(*par, ck),
		Slots:  *par,
	}
	return w.Run(conn)
}
