package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// pairReport prints, for every benchmark present in both files, each
// side's median and interquartile range of ns/op, B/op and allocs/op, and
// the change of the medians. Each file holds one side's repeated runs.
func pairReport(w io.Writer, basePath, newPath string) error {
	base, err := parseFile(basePath)
	if err != nil {
		return err
	}
	cur, err := parseFile(newPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range cur {
		if _, ok := base[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no benchmark appears in both %s and %s", basePath, newPath)
	}
	sort.Strings(names)
	metrics := []struct {
		unit string
		get  func(Entry) float64
	}{
		{"ns/op", func(e Entry) float64 { return e.NsPerOp }},
		{"B/op", func(e Entry) float64 { return e.BytesPerOp }},
		{"allocs/op", func(e Entry) float64 { return e.AllocsPerOp }},
	}
	fmt.Fprintf(w, "%-44s %-9s %5s  %-32s %-32s %s\n", "benchmark", "metric", "runs", "base median [q1, q3]", "new median [q1, q3]", "median change")
	for _, name := range names {
		for _, m := range metrics {
			b, n := quartiles(base[name], m.get), quartiles(cur[name], m.get)
			change := "n/a"
			if b[1] != 0 {
				change = fmt.Sprintf("%+.1f%%", (n[1]-b[1])/b[1]*100)
			}
			fmt.Fprintf(w, "%-44s %-9s %2d/%-2d  %-32s %-32s %s\n", name, m.unit,
				len(base[name]), len(cur[name]), fmtQuartiles(b), fmtQuartiles(n), change)
		}
	}
	return nil
}

func parseFile(path string) (map[string][]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// quartiles returns the first quartile, median and third quartile of one
// metric over runs, interpolating linearly between order statistics.
func quartiles(runs []Entry, get func(Entry) float64) [3]float64 {
	xs := make([]float64, len(runs))
	for i, e := range runs {
		xs[i] = get(e)
	}
	sort.Float64s(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(xs)-1)
		i := int(pos)
		if i+1 >= len(xs) {
			return xs[i]
		}
		return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
