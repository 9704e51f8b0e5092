package harness

import (
	"path/filepath"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/core"
)

// TestRecordTraceSized checks RecordTrace's default sizing covers a
// replay of the same spec without wrapping (the slack absorbs front-end
// run-ahead past the retired-instruction budget).
func TestRecordTraceSized(t *testing.T) {
	o := QuickOptions()
	spec := o.spec("kafka", "baseline")
	path := filepath.Join(t.TempDir(), "kafka.champsim")
	if err := RecordTrace(spec, path, 0); err != nil {
		t.Fatal(err)
	}
	spec.TracePath = path
	spec.TraceDifferential = true
	if _, err := Execute(spec); err != nil {
		t.Fatal(err)
	}
}

// TestTraceCheckpointMidWrongPath is the adversarial checkpoint case for
// trace-driven runs: a snapshot taken while the front-end is fetching a
// *derived* wrong path mid-replay (IAG.Wrong of champsim kind) must fork
// into a core that replays bit-identically to the original continuing
// from the same point — the decode cache, RAS mirror, and reader position
// all have to survive the round trip. The differential mode is covered
// too (its wrong paths are shadow-walker forks riding the same union).
func TestTraceCheckpointMidWrongPath(t *testing.T) {
	for _, mode := range []struct {
		name         string
		differential bool
		wrongKind    string
	}{
		{"standalone", false, checkpoint.SourceChampSimWrong},
		{"differential", true, checkpoint.SourceCFG},
	} {
		t.Run(mode.name, func(t *testing.T) {
			o := QuickOptions()
			spec := o.spec("kafka", "pdip44")
			path := filepath.Join(t.TempDir(), "kafka.champsim")
			if err := RecordTrace(spec, path, 0); err != nil {
				t.Fatal(err)
			}
			spec.TracePath = path
			spec.TraceDifferential = mode.differential

			prog, c, err := buildConfig(spec)
			if err != nil {
				t.Fatal(err)
			}
			src, osrc, err := openSource(spec, prog, c)
			if err != nil {
				t.Fatal(err)
			}
			defer closeSource(src)
			co, err := core.NewWithSource(prog, osrc, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := co.Run(5003); err != nil {
				t.Fatal(err)
			}

			// Sample run boundaries at a dense, irregular stride until one
			// lands inside a wrong-path fetch window of the right kind.
			var st *checkpoint.State
			for step := 0; step < 2000; step++ {
				if err := co.Run(17); err != nil {
					t.Fatal(err)
				}
				s, err := co.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if w := s.Tenants[0].IAG.Wrong; w != nil && w.Kind == mode.wrongKind {
					st = s
					break
				}
			}
			if st == nil {
				t.Fatalf("no snapshot landed mid-wrong-path (kind %q) — widen the schedule", mode.wrongKind)
			}

			// A fresh config carries a fresh prefetcher instance — the
			// harness builds each fork's config the same way; restoring
			// into the prefetcher still attached to the original core
			// would alias live state.
			_, fc, err := buildConfig(spec)
			if err != nil {
				t.Fatal(err)
			}
			fsrc, fosrc, err := openSource(spec, prog, fc)
			if err != nil {
				t.Fatal(err)
			}
			defer closeSource(fsrc)
			fork, err := core.NewFromSnapshotWithSource(prog, fosrc, fc, st)
			if err != nil {
				t.Fatal(err)
			}

			const n = 2003
			if err := co.Run(n); err != nil {
				t.Fatal(err)
			}
			if err := fork.Run(n); err != nil {
				t.Fatal(err)
			}
			if co.Cycles() != fork.Cycles() {
				t.Errorf("cycle counts diverged: scratch %d, fork %d", co.Cycles(), fork.Cycles())
			}
			if diff := co.MetricsSnapshot().Diff(fork.MetricsSnapshot()); len(diff) > 0 {
				if len(diff) > 20 {
					diff = diff[:20]
				}
				t.Errorf("fork from mid-wrong-path snapshot is not bit-identical:\n  %v", diff)
			}
			if err := sourceErr(spec, src); err != nil {
				t.Error(err)
			}
			if err := sourceErr(spec, fsrc); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTraceWarmForkMatchesScratch holds the warm-state layer to the same
// contract under traces as TestCheckpointBitIdentical does for synthetic
// runs: a trace-driven run served by forking a warm snapshot must be
// bit-identical to the same spec executed from scratch.
func TestTraceWarmForkMatchesScratch(t *testing.T) {
	o := QuickOptions()
	spec := o.spec("tomcat", "baseline")
	path := filepath.Join(t.TempDir(), "tomcat.champsim")
	if err := RecordTrace(spec, path, 0); err != nil {
		t.Fatal(err)
	}
	spec.TracePath = path

	scratch, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWithDir(2, checkpoint.NewDir("", 0))
	forked, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Checkpoint.Forks == 0 {
		t.Fatal("runner did not take the warm-fork path")
	}
	if diff := scratch.Metrics.Diff(forked.Metrics); len(diff) > 0 {
		if len(diff) > 20 {
			diff = diff[:20]
		}
		t.Errorf("trace-driven warm fork differs from scratch:\n  %v", diff)
	}
}
