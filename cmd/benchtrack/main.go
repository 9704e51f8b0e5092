// Command benchtrack converts `go test -bench` output into a stable JSON
// snapshot for tracking simulator performance across commits.
//
// It reads benchmark output on stdin and writes one JSON object keyed by
// benchmark name (GOMAXPROCS suffix stripped), each entry carrying the
// metrics the perf harness cares about: ns/op, allocs/op, B/op, and —
// for benchmarks that report it — simulated cycles per second of host
// time. `make bench-track` pipes the standard suite through it to emit
// BENCH_simulator.json, a record of one host's numbers rather than a
// reference other hosts are judged against.
//
// With -pair, benchtrack reads no stdin: it takes two files of repeated
// `go test -bench` output, one per side of a paired comparison (`make
// bench-pair` alternates which side runs first), and prints each row's
// median and quartiles for both sides. It exits nonzero when a row's new
// ns/op median is worse than the base median by more than -threshold and
// the two sides' quartile ranges separate (new q1 above base q3): both
// sides ran on the same host, so the gate does not depend on the hardware
// a snapshot was recorded on.
//
// Usage:
//
//	go test -bench=. -benchmem | benchtrack -o BENCH_simulator.json
//	go test -bench=Micro -benchmem | benchtrack        # JSON to stdout
//	benchtrack -pair -threshold 0.15 base.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark's tracked metrics. Zero-valued fields are
// omitted so benchmarks that don't report a metric (e.g. simcycles/s)
// stay compact in the snapshot.
type Entry struct {
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     float64 `json:"allocs_per_op"`
	BytesPerOp      float64 `json:"bytes_per_op"`
	SimCyclesPerSec float64 `json:"simcycles_per_sec,omitempty"`
}

func main() {
	out := flag.String("o", "", "output path for the JSON snapshot (default: stdout)")
	threshold := flag.Float64("threshold", 0.15, "with -pair: maximum tolerated fractional ns/op regression (0.15 = 15%)")
	pair := flag.Bool("pair", false, "compare the repeated runs in two files (base, new): per row and side, the median and quartiles")
	flag.Parse()

	if *pair {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchtrack: -pair takes two files: base and new")
			os.Exit(2)
		}
		regressed, err := pairReport(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtrack:", err)
			os.Exit(1)
		}
		for _, r := range regressed {
			fmt.Fprintln(os.Stderr, "benchtrack: regression:", r)
		}
		if len(regressed) > 0 {
			os.Exit(1)
		}
		return
	}

	runs, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtrack:", err)
		os.Exit(1)
	}
	entries := make(map[string]Entry, len(runs))
	for name, rs := range runs {
		entries[name] = rs[len(rs)-1]
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchtrack: no benchmark lines on stdin (run with `go test -bench=... -benchmem | benchtrack`)")
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtrack:", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchtrack:", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(entries); err != nil {
		fmt.Fprintln(os.Stderr, "benchtrack:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "benchtrack: wrote %d benchmarks to %s\n", len(entries), *out)
	}
}

// parse extracts benchmark result lines from r, every run of each
// benchmark in input order. The Go testing package emits one line per
// benchmark: the name (with a -N GOMAXPROCS suffix), the iteration count,
// then value/unit pairs.
func parse(r io.Reader) (map[string][]Entry, error) {
	runs := make(map[string][]Entry)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count: some other Benchmark-prefixed line
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the GOMAXPROCS suffix
			}
		}
		var e Entry
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "simcycles/s":
				e.SimCyclesPerSec = v
			}
		}
		runs[name] = append(runs[name], e)
	}
	return runs, sc.Err()
}
