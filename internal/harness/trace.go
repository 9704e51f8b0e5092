package harness

import (
	"fmt"
	"os"
	"path/filepath"

	"pdip/internal/cfg"
	"pdip/internal/core"
	"pdip/internal/trace"
	"pdip/internal/trace/champsim"
)

// TraceSlack is the instruction headroom RecordTrace appends beyond a
// spec's warmup+measure budget. The front-end runs ahead of retirement
// (FTQ depth × entry size, plus pipeline drain), so a trace sized exactly
// to the retired-instruction budget would wrap — and a differential
// replay would then diverge at the wrap point. 64K instructions covers
// the deepest run-ahead the machine configuration allows with a wide
// margin, at ~4 MB of (compressible) trace.
const TraceSlack = 1 << 16

// TracePathFor names the trace file a benchmark reads from dir:
// <dir>/<benchmark>.champsim, or its .gz sibling when only that exists.
func TracePathFor(dir, bench string) string {
	p := filepath.Join(dir, bench+".champsim")
	if _, err := os.Stat(p); err != nil {
		if gz := p + ".gz"; fileExists(gz) {
			return gz
		}
	}
	return p
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// openSource opens spec's ChampSim trace (nil when the spec is purely
// synthetic). The concrete source is returned alongside its interface
// form so callers avoid handing the core a typed-nil interface.
func openSource(spec RunSpec, prog *cfg.Program, c core.Config) (*champsim.Source, trace.OracleSource, error) {
	if spec.TracePath == "" {
		return nil, nil, nil
	}
	var (
		src *champsim.Source
		err error
	)
	if spec.TraceDifferential {
		src, err = champsim.OpenDifferential(spec.TracePath, prog, c.Seed)
	} else {
		src, err = champsim.Open(spec.TracePath)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", spec.Key(), err)
	}
	return src, src, nil
}

// RecordTrace exports spec's synthetic instruction stream as a ChampSim
// trace at path (gzipped when path ends in ".gz"). n is the number of
// instructions to record; 0 sizes the trace to the spec's warmup+measure
// budget plus TraceSlack, enough that a replay of the same spec never
// wraps. The stream is the exact oracle sequence a direct run consumes:
// same program, same seed, so a differential replay against the same
// benchmark is bit-identical.
func RecordTrace(spec RunSpec, path string, n uint64) error {
	prog, c, err := buildConfig(spec)
	if err != nil {
		return err
	}
	if n == 0 {
		warmup, measure := spec.budgets()
		n = warmup + measure + TraceSlack
	}
	w, err := champsim.Create(path)
	if err != nil {
		return err
	}
	walker := trace.New(prog, c.Seed)
	for i := uint64(0); i < n; i++ {
		if err := w.WriteInst(walker.Next()); err != nil {
			w.Close()
			return fmt.Errorf("record %s: %w", path, err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("record %s: %w", path, err)
	}
	return nil
}
