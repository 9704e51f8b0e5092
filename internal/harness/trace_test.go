package harness

import (
	"path/filepath"
	"testing"

	"pdip/internal/checkpoint"
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

			orig, err := newRun([]RunSpec{spec}, SocketOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := orig.build(nil); err != nil {
				orig.finish(err)
				t.Fatal(err)
			}
			co := orig.s
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

			// The fork's run has its own configuration, and with it a
			// fresh prefetcher instance, and its own trace source, which
			// the restore positions: restoring into the prefetcher still
			// attached to the original core would alias live state.
			forkRun, err := newRun([]RunSpec{spec}, SocketOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := forkRun.build(st); err != nil {
				forkRun.finish(err)
				t.Fatal(err)
			}
			fork := forkRun.s

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
			if diff := co.CombinedSnapshot().Diff(fork.CombinedSnapshot()); len(diff) > 0 {
				if len(diff) > 20 {
					diff = diff[:20]
				}
				t.Errorf("fork from mid-wrong-path snapshot is not bit-identical:\n  %v", diff)
			}
			// finish reports a divergence either trace source latched.
			if err := orig.finish(nil); err != nil {
				t.Error(err)
			}
			if err := forkRun.finish(nil); err != nil {
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
