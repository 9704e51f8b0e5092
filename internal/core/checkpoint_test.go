package core

import (
	"bytes"
	"fmt"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/eip"
	"pdip/internal/fnlmma"
	"pdip/internal/pdip"
	"pdip/internal/prefetch"
	"pdip/internal/rdip"
)

// snapshotRoundTrip snapshots co, pushes the state through the serialized
// wire format (Encode/Decode — so the test covers the on-disk path, not
// just the in-memory fork), restores a fresh core, and returns it.
func snapshotRoundTrip(t *testing.T, co *Core, c Config) *Core {
	t.Helper()
	st, err := co.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	st2, err := checkpoint.DecodeBytes(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fork, err := NewFromSnapshot(co.prog, c, st2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return fork
}

// diffCores runs both cores n more instructions and diffs their full
// metric snapshots bit-exactly.
func diffCores(t *testing.T, label string, a, b *Core, n uint64) {
	t.Helper()
	if err := a.Run(n); err != nil {
		t.Fatalf("%s: original: %v", label, err)
	}
	if err := b.Run(n); err != nil {
		t.Fatalf("%s: restored: %v", label, err)
	}
	if a.Cycles() != b.Cycles() {
		t.Errorf("%s: cycle counts diverged: %d vs %d", label, a.Cycles(), b.Cycles())
	}
	if diff := a.MetricsSnapshot().Diff(b.MetricsSnapshot()); len(diff) > 0 {
		show := diff
		if len(show) > 20 {
			show = show[:20]
		}
		t.Errorf("%s: %d metrics differ after restore:\n  %v", label, len(diff), show)
	}
}

// TestCheckpointRoundTripMidRun snapshots cores at arbitrary mid-run
// points — not quiesced measurement boundaries — and requires the restored
// core to replay bit-identically. The snapshot points are chosen densely
// enough that the adversarial microarchitectural states a checkpoint must
// survive are all exercised at least once, and the test fails if any of
// them never occurred (so the coverage claim is itself checked):
//
//   - a pending front-end resteer with the wrong-path walker live,
//   - full MSHRs at some cache level,
//   - a non-empty prefetch queue,
//   - uops in flight in the decode latch and ROB, episodes shared.
func TestCheckpointRoundTripMidRun(t *testing.T) {
	prog := testProgram(11)
	c := testConfig(11)
	c.Prefetcher = pdip.New(pdip.DefaultConfig())

	required := []string{
		"resteer-pending", "wrong-path-walker", "pq-nonempty",
		"mshr-full", "uops-in-flight", "episodes-shared",
	}
	conditions := func(snap *checkpoint.State) []string {
		st := &snap.Tenants[0]
		var out []string
		if st.Core.HasResteer {
			out = append(out, "resteer-pending")
		}
		if st.IAG.Wrong != nil {
			out = append(out, "wrong-path-walker")
		}
		if len(st.PQ.Entries) > 0 {
			out = append(out, "pq-nonempty")
		}
		if len(st.Mem.L1D.Inflight) >= c.Mem.L1D.MSHRs {
			out = append(out, "mshr-full")
		}
		if len(st.DecodeQ) > 0 && len(st.ROB.Uops) > 0 {
			out = append(out, "uops-in-flight")
		}
		if len(st.Episodes) > 1 {
			out = append(out, "episodes-shared")
		}
		return out
	}

	seen := map[string]bool{}
	co := MustNew(prog, c)
	// Throttle prefetch issue so PQ backlog survives to run boundaries and
	// the pq-nonempty condition is actually reachable. IssuePerCycle is a
	// config knob (not checkpointed), so it is applied to forks identically.
	co.pq.IssuePerCycle = 1
	if err := co.Run(5003); err != nil {
		t.Fatal(err)
	}
	// Snapshot at a dense, irregular stride: the transient conditions
	// (non-empty PQ, full MSHRs) show at only a few percent of run
	// boundaries, so the schedule keeps sampling until every condition has
	// been caught — and runs the costlier fork bit-identity verification
	// whenever a condition is first seen, plus periodically in between.
	for step := 0; step < 1500 && len(seen) < len(required); step++ {
		if err := co.Run(17); err != nil {
			t.Fatal(err)
		}
		st, err := co.Snapshot()
		if err != nil {
			t.Fatalf("step %d: snapshot: %v", step, err)
		}
		fresh := false
		for _, cond := range conditions(st) {
			if !seen[cond] {
				seen[cond] = true
				fresh = true
			}
		}
		if !fresh && step%53 != 0 {
			continue
		}
		fork, err := NewFromSnapshot(prog, c2WithFreshPrefetcher(c), st)
		if err != nil {
			t.Fatalf("step %d: restore: %v", step, err)
		}
		fork.pq.IssuePerCycle = co.pq.IssuePerCycle
		diffCores(t, fmt.Sprintf("step %d", step), co, fork, 997)
	}
	for _, cond := range required {
		if !seen[cond] {
			t.Errorf("adversarial condition %q never observed across snapshots — widen the snapshot schedule", cond)
		}
	}
}

// c2WithFreshPrefetcher clones c with a fresh prefetcher instance, the way
// the harness builds each fork's config: restoring into the prefetcher
// instance still attached to the original core would alias live state.
func c2WithFreshPrefetcher(c Config) Config {
	switch p := c.Prefetcher.(type) {
	case *pdip.PDIP:
		_ = p
		c.Prefetcher = pdip.New(pdip.DefaultConfig())
	case *eip.EIP:
		c.Prefetcher = eip.New(eip.DefaultConfig())
	case *rdip.RDIP:
		c.Prefetcher = rdip.New(rdip.DefaultConfig())
	case *fnlmma.FNLMMA:
		c.Prefetcher = fnlmma.New(fnlmma.DefaultConfig())
	case *prefetch.NextLine:
		c.Prefetcher = prefetch.NewNextLine(p.Degree)
	}
	return c
}

// TestCheckpointRoundTripAllPrefetchers round-trips a mid-run snapshot
// under every prefetcher implementation, so each one's Capture/Restore
// pair is held to the bit-identity contract.
func TestCheckpointRoundTripAllPrefetchers(t *testing.T) {
	pfs := map[string]func() prefetch.Prefetcher{
		"none":     func() prefetch.Prefetcher { return prefetch.None{} },
		"nextline": func() prefetch.Prefetcher { return prefetch.NewNextLine(2) },
		"pdip":     func() prefetch.Prefetcher { return pdip.New(pdip.DefaultConfig()) },
		"eip":      func() prefetch.Prefetcher { return eip.New(eip.DefaultConfig()) },
		"eip-anal": func() prefetch.Prefetcher { return eip.New(eip.AnalyticalConfig()) },
		"rdip":     func() prefetch.Prefetcher { return rdip.New(rdip.DefaultConfig()) },
		"fnlmma":   func() prefetch.Prefetcher { return fnlmma.New(fnlmma.DefaultConfig()) },
	}
	prog := testProgram(12)
	for name, mk := range pfs {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := testConfig(12)
			c.Prefetcher = mk()
			co := MustNew(prog, c)
			if err := co.Run(30011); err != nil {
				t.Fatal(err)
			}
			cf := c
			cf.Prefetcher = mk()
			fork := snapshotRoundTrip(t, co, cf)
			diffCores(t, name, co, fork, 30011)
		})
	}
}

// TestCheckpointDeterministicBytes requires the serialized form to be a
// pure function of simulator state: snapshotting the same core twice, and
// snapshotting a restored fork, must produce byte-identical encodings.
// Content-addressed disk caching depends on this (same state ⇒ same key).
func TestCheckpointDeterministicBytes(t *testing.T) {
	prog := testProgram(13)
	c := testConfig(13)
	c.Prefetcher = pdip.New(pdip.DefaultConfig())
	c.CollectSets = true
	co := MustNew(prog, c)
	if err := co.Run(40009); err != nil {
		t.Fatal(err)
	}
	enc := func(co *Core) []byte {
		st, err := co.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := enc(co), enc(co)
	if !bytes.Equal(a, b) {
		t.Error("two snapshots of the same core encode differently (nondeterministic serialization)")
	}
	fork := snapshotRoundTrip(t, co, c2WithFreshPrefetcher(c))
	if !bytes.Equal(a, enc(fork)) {
		t.Error("a restored fork encodes differently from its source snapshot")
	}
}

// TestCheckpointVersionMismatch pins the refusal path: a snapshot from a
// different state-format version must be rejected, never half-restored.
func TestCheckpointVersionMismatch(t *testing.T) {
	prog := testProgram(14)
	c := testConfig(14)
	co := MustNew(prog, c)
	if err := co.Run(5000); err != nil {
		t.Fatal(err)
	}
	st, err := co.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Version = checkpoint.FormatVersion + 1
	if _, err := NewFromSnapshot(prog, c, st); err == nil {
		t.Error("NewFromSnapshot accepted a snapshot with a future format version")
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.DecodeBytes(buf.Bytes()); err == nil {
		t.Error("DecodeBytes accepted a stream with a future format version")
	}
}
