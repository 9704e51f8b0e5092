package main

import (
	"fmt"

	"pdip/internal/harness"
	"pdip/internal/metrics"
)

// sameResult reports how got differs from want: every counter and gauge of
// the final snapshot and of each interval sample. It returns "" when they
// are identical.
func sameResult(got, want *harness.RunResult) string {
	if d := got.Metrics.Diff(want.Metrics); len(d) > 0 {
		return fmt.Sprintf("%d metrics differ, first %s", len(d), d[0])
	}
	return sameSamples(got.Samples, want.Samples)
}

func sameSamples(got, want []metrics.Sample) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Instructions != want[i].Instructions {
			return fmt.Sprintf("sample %d at %d instructions, want %d", i, got[i].Instructions, want[i].Instructions)
		}
		if d := got[i].Metrics.Diff(want[i].Metrics); len(d) > 0 {
			return fmt.Sprintf("sample %d: %d metrics differ, first %s", i, len(d), d[0])
		}
	}
	return ""
}

// checkCell requires a cell's result to exist, to be the spec's, and to
// have retired at least its measured budget.
func checkCell(spec harness.RunSpec, res *harness.RunResult) error {
	if res == nil {
		return fmt.Errorf("%s: no result", spec.Key())
	}
	if res.Spec != spec {
		return fmt.Errorf("%s: result is for %s", spec.Key(), res.Spec.Key())
	}
	if got := res.Res.Core.Instructions; got < spec.Measure {
		return fmt.Errorf("%s: retired %d instructions, budget %d", spec.Key(), got, spec.Measure)
	}
	return nil
}

// verifyScratch re-runs each spec from scratch with harness.Execute and
// requires the earlier result to match it exactly.
func (b *bench) verifyScratch(specs []harness.RunSpec, got map[harness.RunSpec]*harness.RunResult) error {
	for _, spec := range specs {
		want, err := harness.Execute(spec)
		if err != nil {
			return fmt.Errorf("verify %s: %w", spec.Key(), err)
		}
		if d := sameResult(got[spec], want); d != "" {
			b.fail("%s (measure %d, sample every %d) differs from harness.Execute: %s",
				spec.Key(), spec.Measure, spec.SampleEvery, d)
		}
	}
	fmt.Printf("verify: %d sampled cells re-run with harness.Execute\n", len(specs))
	return nil
}

// seedProbe sends nonzero-seed specs through Runner.Run and through
// harness.Execute and reports how many disagree. The Runner warms every
// seed as seed 0, so today all of them do. It is reported, not gated: no
// workload's verdict depends on it.
func (b *bench) seedProbe() {
	r := harness.NewRunner(1)
	mismatch := 0
	const probes = 3
	for i := 0; i < probes; i++ {
		spec := harness.RunSpec{
			Benchmark: "kafka", Policy: "pdip44",
			Warmup: 40_000, Measure: 50_000,
			Seed: b.seed%1000 + uint64(i) + 1,
		}
		viaRunner, err := r.Run(spec)
		if err != nil {
			b.fail("seed probe %s via Runner: %v", spec.Key(), err)
			continue
		}
		scratch, err := harness.Execute(spec)
		if err != nil {
			b.fail("seed probe %s via Execute: %v", spec.Key(), err)
			continue
		}
		if sameResult(viaRunner, scratch) != "" {
			mismatch++
		}
	}
	fmt.Printf("harness.seed_probe_mismatch=%d of %d seeded specs (Runner.Run vs harness.Execute)\n", mismatch, probes)
	if b.tr != nil {
		b.layer("harness.seed_probe_mismatch", float64(mismatch))
	}
}
