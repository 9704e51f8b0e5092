package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pdip/internal/cfg"
	"pdip/internal/workload"
)

// minCells is the fewest cells a timed phase completes, so that the 90th
// percentile latency has at least ten cells beyond it.
const minCells = 100

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, which a single slow repetition cannot move.
const setupReps = 5

// phase collects one run's end-to-end measurements: set-up repetitions and
// the timed phase's per-cell latencies and process costs.
type phase struct {
	setup []float64 // s, one per set-up repetition

	lat       []float64 // ms, from submission to result
	attempted int
	failed    int

	start   time.Time
	elapsed float64 // s, length of the timed phase
	alloc   uint64  // heap bytes allocated in the timed phase
	peakRSS float64 // MiB, high-water RSS of the timed phase
}

// genPrograms generates the programs of the named benchmarks, the set-up
// every workload shares: through Profile.Program the first time, which
// fills its cache, and through cfg.Generate (the same work, uncached) on
// each later repetition.
func genPrograms(benches []string, first bool) error {
	for _, name := range benches {
		prof, err := workload.ByName(name)
		if err != nil {
			return err
		}
		if first {
			_, err = prof.Program()
		} else {
			_, err = cfg.Generate(prof.CFG)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// timeSetup times one set-up repetition.
func (p *phase) timeSetup(fn func() error) error {
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	p.setup = append(p.setup, time.Since(t0).Seconds())
	return nil
}

// cell times one cell from submission to result.
func (p *phase) cell(fn func() error) error {
	t0 := time.Now()
	err := fn()
	p.lat = append(p.lat, float64(time.Since(t0).Nanoseconds())/1e6)
	p.attempted++
	if err != nil {
		p.failed++
	}
	return err
}

// measure runs fn as the timed phase, starting from a collected heap with
// the RSS high-water mark reset, and records its wall time, heap
// allocation and peak RSS.
func (p *phase) measure(fn func()) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.start = time.Now()
	fn()
	p.elapsed = time.Since(p.start).Seconds()
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	p.peakRSS = peakRSSMiB()
}

// done reports whether the timed phase may stop: it has run for the
// requested time and completed at least minCells cells.
func (p *phase) done(b *bench) bool {
	return time.Since(p.start).Seconds() >= b.seconds && p.attempted >= minCells
}

// endToEnd sets the end-to-end metrics from p.
func (b *bench) endToEnd(p *phase) {
	n := float64(p.attempted)
	b.set("setup_s", "s", median(p.setup))
	b.set("cells_per_s", "1/s", float64(p.attempted-p.failed)/p.elapsed)
	b.set("cell_ms_p50", "ms", quantile(p.lat, 0.5))
	b.set("cell_ms_p90", "ms", quantile(p.lat, 0.9))
	b.set("peak_rss_mb", "MiB", p.peakRSS)
	b.set("alloc_mb_per_cell", "MiB", float64(p.alloc)/n/(1<<20))
	b.set("ok_frac", "fraction", float64(p.attempted-p.failed)/n)
}

// quantile returns the q-quantile of xs, interpolating between ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS resets the kernel's RSS high-water mark to the current RSS
// (Linux: "5" to /proc/self/clear_refs). Where that is refused, the peak
// read later covers the whole process instead of the timed phase.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
