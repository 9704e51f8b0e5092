package core

import (
	"bytes"
	"fmt"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/pdip"
)

// socketTenants builds one tenant per seed, each with its own program,
// seed, and a fresh PDIP instance. Regenerating with the same seeds
// yields configs that NewSocketFromSnapshot accepts as matching.
func socketTenants(seeds ...uint64) []SocketTenant {
	out := make([]SocketTenant, len(seeds))
	for i, seed := range seeds {
		c := testConfig(seed)
		c.Prefetcher = pdip.New(pdip.DefaultConfig())
		out[i] = SocketTenant{Prog: testProgram(seed), Config: c}
	}
	return out
}

// TestSocketLockstep pins the socket clock discipline: after any Run,
// every core's cycle counter equals the socket's.
func TestSocketLockstep(t *testing.T) {
	s, err := NewSocket(socketTenants(51, 52, 53), SocketConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(8000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumCores(); i++ {
		if got := s.Core(i).Cycles(); got != s.Cycles() {
			t.Errorf("core %d at cycle %d, socket at %d", i, got, s.Cycles())
		}
	}
}

// TestSocketRejectsMismatchedUncore pins the constructor contract: tenants
// whose shared-level geometry differs from tenant 0's are refused (there
// is only one uncore).
func TestSocketRejectsMismatchedUncore(t *testing.T) {
	tenants := socketTenants(61, 62)
	tenants[1].Config.Mem.L2.Ways *= 2
	if _, err := NewSocket(tenants, SocketConfig{}); err == nil {
		t.Fatal("socket accepted tenants with differing L2 geometry")
	}
	tenants = socketTenants(61, 62)
	tenants[1].Config.NoFastForward = true
	if _, err := NewSocket(tenants, SocketConfig{}); err == nil {
		t.Fatal("socket accepted tenants with differing fast-forward modes")
	}
}

// snapshotSocketRoundTrip snapshots s, pushes the state through the
// serialized wire format (Encode/Decode), and restores a fresh socket
// built from identically regenerated tenants.
func snapshotSocketRoundTrip(t *testing.T, s *Socket, seeds []uint64, sc SocketConfig) *Socket {
	t.Helper()
	st, err := s.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	st2, err := checkpoint.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fork, err := NewSocketFromSnapshot(socketTenants(seeds...), sc, st2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return fork
}

// diffSockets runs both sockets until every tenant retires n more
// instructions and diffs them bit-exactly: the combined snapshots (each
// tenant as reported at its quota crossing, plus the uncore), and the live
// state after the run — every core's registry, including a tenant that
// kept running past its crossing, and the uncore's interference registry.
func diffSockets(t *testing.T, label string, a, b *Socket, n uint64) {
	t.Helper()
	if err := a.Run(n); err != nil {
		t.Fatalf("%s: original: %v", label, err)
	}
	if err := b.Run(n); err != nil {
		t.Fatalf("%s: restored: %v", label, err)
	}
	if a.Cycles() != b.Cycles() {
		t.Errorf("%s: socket clocks diverged: %d vs %d", label, a.Cycles(), b.Cycles())
	}
	report := func(what string, diff []string) {
		if len(diff) == 0 {
			return
		}
		show := diff
		if len(show) > 20 {
			show = show[:20]
		}
		t.Errorf("%s: %d %s metrics differ after restore:\n  %v", label, len(diff), what, show)
	}
	report("combined", a.CombinedSnapshot().Diff(b.CombinedSnapshot()))
	for i := 0; i < a.NumCores(); i++ {
		report(fmt.Sprintf("live core %d", i), a.Core(i).MetricsSnapshot().Diff(b.Core(i).MetricsSnapshot()))
	}
	report("live uncore", a.InterferenceSnapshot().Diff(b.InterferenceSnapshot()))
}

// TestSocketCheckpointMidWrongPath is the adversarial socket round trip:
// a 2-core socket is snapshotted at arbitrary mid-run points until core 1
// is caught with its wrong-path walker live (a pending resteer in flight),
// the state crosses the wire format, and the restored socket must replay
// bit-identically — per-tenant counters and shared-level interference
// counters alike. The test fails if the wrong-path condition is never
// observed, so the coverage claim is itself checked.
func TestSocketCheckpointMidWrongPath(t *testing.T) {
	seeds := []uint64{31, 32}
	sc := SocketConfig{}
	s, err := NewSocket(socketTenants(seeds...), sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3001); err != nil {
		t.Fatal(err)
	}

	caught := false
	for step := 0; step < 600 && !caught; step++ {
		if err := s.Run(13); err != nil {
			t.Fatal(err)
		}
		st, err := s.Snapshot()
		if err != nil {
			t.Fatalf("step %d: snapshot: %v", step, err)
		}
		caught = st.Tenants[1].IAG.Wrong != nil
		if !caught && step%41 != 0 {
			continue
		}
		fork := snapshotSocketRoundTrip(t, s, seeds, sc)
		diffSockets(t, fmt.Sprintf("step %d (wrong-path=%v)", step, caught), s, fork, 499)
	}
	if !caught {
		t.Error("wrong-path walker on core 1 never observed across snapshots — widen the snapshot schedule")
	}
}
