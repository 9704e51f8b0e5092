// Command perfbench is the simulator's end-to-end benchmark. It runs one
// named workload at a given seed through the entry points users call
// (harness.Runner with an experiment, a fabric fleet over a warm checkpoint
// store, harness.ExecuteSocket), times it from outside, checks that every
// simulated result is right, and prints one JSON line of metrics.
//
// With -trace 1 it instead runs at least 100 of the workload's cells
// untraced, then replays each one at a time re-composed from each layer's
// public calls, recording a span around every call, and once more untraced
// through the harness; it requires the replay's simulated counters to equal
// the untraced run's and prints per-layer metrics (self times, counts and
// ratios).
//
// Run it through run.sh, which builds it from the checkout it sits in:
//
//	bash _perfbench/run.sh --workload fig10-grid --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloadRunner runs one workload in end-to-end or traced mode.
type workloadRunner interface {
	// timed sets up, runs the timed phase and verifies a sample of it.
	timed(b *bench) (*phase, error)
	// traced runs the cells once untraced and once through the layers.
	traced(b *bench) error
}

var workloads = map[string]workloadRunner{
	"fig10-grid":      &fig10{},
	"warmstore-fleet": &fleet{},
	"socket-corun":    &socketCorun{},
}

// bench is one benchmark run: its arguments, scratch space and verdict.
type bench struct {
	seed    uint64
	seconds float64
	rng     *rand.Rand
	work    string // scratch directory inside the checkout
	tr      *tracer

	problems []string
	metrics  map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fail records a correctness problem; any problem makes the run incorrect.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 50 {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", msg)
	}
	b.problems = append(b.problems, msg)
}

// ok reports whether no correctness problem has been recorded.
func (b *bench) ok() bool {
	return len(b.problems) == 0
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// sample picks up to n distinct indices below size, chosen by the seed.
func (b *bench) sample(size, n int) []int {
	idx := b.rng.Perm(size)
	if n < len(idx) {
		idx = idx[:n]
	}
	sort.Ints(idx)
	return idx
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 0, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer mode instead of the end-to-end one")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory (checkpoint stores, span dumps)")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	err := os.MkdirAll(*work, 0o755)
	var runDir string
	if err == nil {
		runDir, err = os.MkdirTemp(*work, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(runDir)

	b := &bench{
		seed:    *seed,
		seconds: *seconds,
		rng:     rand.New(rand.NewSource(int64(*seed))),
		work:    runDir,
		metrics: map[string]metric{},
	}
	out := output{Metrics: b.metrics}
	if *trace == 1 {
		b.tr = newTracer()
		err = w.traced(b)
		if err == nil && b.ok() {
			fmt.Printf("split: core %.3f, checkpoint load and restore plus fabric %.3f of traced cell time\n",
				b.metrics["split.core_frac"].Value, b.metrics["split.ckpt_fabric_frac"].Value)
			err = b.tr.dump(filepath.Join(*work, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed)))
		}
		out.Attempted, out.Failed = b.tr.cells, 0
	} else {
		var ph *phase
		ph, err = w.timed(b)
		if ph != nil {
			out.Attempted, out.Failed = ph.attempted, ph.failed
			if ph.failed > 0 {
				b.fail("%d of %d cells failed in the timed phase", ph.failed, ph.attempted)
			}
		}
	}
	if err == nil {
		b.seedProbe()
	}
	if b.tr != nil {
		b.zeroLayers()
	}
	if err != nil {
		os.RemoveAll(runDir)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.Attempted < 1 {
		b.fail("no cells attempted")
		out.Attempted = 1
		out.Failed = 1
	}
	out.Correct = b.ok()
	fmt.Printf("workload=%s seed=%d trace=%d cells=%d correct=%v\n", *name, *seed, *trace, out.Attempted, out.Correct)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
