package pdip

import "testing"

func TestPublicRegistries(t *testing.T) {
	if len(Benchmarks()) != 16 {
		t.Fatalf("%d benchmarks", len(Benchmarks()))
	}
	if len(BenchmarkNames()) != 16 {
		t.Fatal("names mismatch")
	}
	if len(Policies()) == 0 {
		t.Fatal("empty policy registry")
	}
	if len(Experiments()) != 16 {
		t.Fatalf("%d experiments, want 16 (every table and figure plus ablations, the trace cross-check, and contention)", len(Experiments()))
	}
	if _, err := BenchmarkByName("tpcc"); err != nil {
		t.Fatal(err)
	}
	if _, err := PolicyByName("pdip44"); err != nil {
		t.Fatal(err)
	}
	if _, err := ExperimentByID("fig10"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRunSmoke(t *testing.T) {
	res, err := Run(RunSpec{Benchmark: "speedometer2.0", Policy: "pdip44", Warmup: 20_000, Measure: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Res.IPC() <= 0 {
		t.Fatal("non-positive IPC")
	}
}

func TestRunProfile(t *testing.T) {
	prof, err := BenchmarkByName("kafka")
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultCoreConfig()
	c.Seed = prof.CFG.Seed
	r, err := RunProfile(prof, c, 20_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Core.Instructions < 50_000 {
		t.Fatalf("measured %d instructions", r.Core.Instructions)
	}
}

func TestExperimentPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Experiment(bad) did not panic")
		}
	}()
	Experiment("fig99")
}

func TestDefaultConfigIsTable1(t *testing.T) {
	c := DefaultCoreConfig()
	if c.Mem.L1I.SizeBytes != 32<<10 || c.BPU.BTBEntries != 8192 ||
		c.FTQDepth != 24 || c.ROBSize != 512 || c.DecodeWidth != 12 {
		t.Fatal("default config drifted from Table 1")
	}
}

// TestRunDeterministic runs one spec through the public Run twice, with
// the profile's default seed (0) and with a sweep seed: each pair must
// produce identical metrics and samples. A zero seed filled from the
// clock, or any other unseeded stream behind Run, fails it.
func TestRunDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 7} {
		spec := RunSpec{Benchmark: "kafka", Policy: "pdip44", Warmup: 20_000, Measure: 40_000, SampleEvery: 20_000, Seed: seed}
		a, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Metrics.Diff(b.Metrics); len(d) > 0 {
			t.Errorf("seed %d: %d metrics differ between two identical runs, first %s", seed, len(d), d[0])
		}
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("seed %d: %d samples vs %d", seed, len(a.Samples), len(b.Samples))
		}
		for i := range a.Samples {
			if d := a.Samples[i].Metrics.Diff(b.Samples[i].Metrics); len(d) > 0 {
				t.Errorf("seed %d: sample %d differs, first %s", seed, i, d[0])
			}
		}
	}
}
