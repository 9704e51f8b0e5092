// Command benchtrack converts `go test -bench` output into a stable JSON
// snapshot for tracking simulator performance across commits.
//
// It reads benchmark output on stdin and writes one JSON object keyed by
// benchmark name (GOMAXPROCS suffix stripped), each entry carrying the
// metrics the perf harness cares about: ns/op, allocs/op, B/op, and —
// for benchmarks that report it — simulated cycles per second of host
// time. `make bench-track` pipes the standard suite through it to emit
// BENCH_simulator.json; diffing that file against the committed snapshot
// is the before/after evidence for any perf PR.
//
// Usage:
//
// With -diff, benchtrack instead compares the freshly parsed results
// against a committed snapshot and exits nonzero when any benchmark's
// ns/op regressed beyond -threshold (default 15%) — the CI guard that a
// perf-sensitive change cannot silently slow the simulator down.
// -threshold-for tightens (or loosens) the gate for rows matching a
// regexp, so low-variance benchmarks can be held to a stricter budget
// than the noisy end-to-end grids; the flag repeats, first match wins.
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
//	go test -bench=. -benchmem | benchtrack -diff BENCH_simulator.json
//	... | benchtrack -diff BENCH_simulator.json -threshold-for '^BenchmarkCheckpoint=0.10'
//	benchtrack -pair -threshold 0.15 base.txt new.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
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

// thresholdRule is one -threshold-for override: benchmarks whose name
// matches re are gated at frac instead of the global -threshold.
type thresholdRule struct {
	re   *regexp.Regexp
	frac float64
}

// thresholdRules implements flag.Value for the repeatable -threshold-for
// flag. Rules apply in the order given; the first match wins.
type thresholdRules []thresholdRule

func (t *thresholdRules) String() string {
	parts := make([]string, len(*t))
	for i, r := range *t {
		parts[i] = fmt.Sprintf("%s=%g", r.re, r.frac)
	}
	return strings.Join(parts, ",")
}

func (t *thresholdRules) Set(s string) error {
	i := strings.LastIndex(s, "=")
	if i <= 0 {
		return fmt.Errorf("bad -threshold-for %q: want <regexp>=<fraction>", s)
	}
	re, err := regexp.Compile(s[:i])
	if err != nil {
		return fmt.Errorf("bad -threshold-for pattern %q: %w", s[:i], err)
	}
	frac, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil || frac < 0 {
		return fmt.Errorf("bad -threshold-for fraction %q: want a non-negative number", s[i+1:])
	}
	*t = append(*t, thresholdRule{re: re, frac: frac})
	return nil
}

// thresholdFor resolves the gate for one benchmark name.
func (t thresholdRules) thresholdFor(name string, fallback float64) float64 {
	for _, r := range t {
		if r.re.MatchString(name) {
			return r.frac
		}
	}
	return fallback
}

func main() {
	out := flag.String("o", "", "output path for the JSON snapshot (default: stdout)")
	diff := flag.String("diff", "", "compare parsed results against this committed snapshot instead of writing one; exit nonzero on ns/op regression beyond -threshold")
	threshold := flag.Float64("threshold", 0.15, "with -diff or -pair: maximum tolerated fractional ns/op regression (0.15 = 15%)")
	var rules thresholdRules
	flag.Var(&rules, "threshold-for", "with -diff: per-row override as <regexp>=<fraction>, e.g. '^BenchmarkCheckpoint=0.10' (repeatable; first match wins over -threshold)")
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

	if *diff != "" {
		if err := diffSnapshot(entries, *diff, *threshold, rules); err != nil {
			fmt.Fprintln(os.Stderr, "benchtrack:", err)
			os.Exit(1)
		}
		return
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

// diffSnapshot compares fresh results against the snapshot at path and
// returns an error when any benchmark present in both regressed in ns/op
// by more than its threshold — the first matching -threshold-for rule,
// falling back to the global value. Benchmarks only on one side are
// reported but never fail the gate (new benchmarks land with the PR that
// adds them; removed ones disappear with theirs) — and timing noise in
// either direction below the threshold is reported as ok.
func diffSnapshot(entries map[string]Entry, path string, threshold float64, rules thresholdRules) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var base map[string]Entry
	if err := json.NewDecoder(f).Decode(&base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)

	var regressions []string
	for _, name := range names {
		cur := entries[name]
		old, ok := base[name]
		if !ok {
			fmt.Printf("%-48s %12.0f ns/op  (new, not in %s)\n", name, cur.NsPerOp, path)
			continue
		}
		if old.NsPerOp <= 0 {
			continue
		}
		gate := rules.thresholdFor(name, threshold)
		delta := (cur.NsPerOp - old.NsPerOp) / old.NsPerOp
		status := "ok"
		if delta > gate {
			status = fmt.Sprintf("REGRESSION (beyond %.0f%%)", gate*100)
			regressions = append(regressions, name)
		}
		fmt.Printf("%-48s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			name, old.NsPerOp, cur.NsPerOp, delta*100, status)
	}
	baseNames := make([]string, 0, len(base))
	for name := range base {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if _, ok := entries[name]; !ok {
			fmt.Printf("%-48s (in %s but not in this run)\n", name, path)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond their ns/op threshold: %s",
			len(regressions), strings.Join(regressions, ", "))
	}
	fmt.Printf("benchtrack: no ns/op regression beyond threshold across %d benchmarks\n", len(names))
	return nil
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
