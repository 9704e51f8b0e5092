package core

import (
	"bytes"
	"fmt"
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/pdip"
	"pdip/internal/recycle"
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

// TestFailedNewSocketReleasesTables: a socket build that fails after it
// has taken tables (a cache geometry that passes Config.Validate but not
// cache.New, in tenant 1's L1D or in the shared L3) hands them back, so
// the next build takes no fresh table. Not parallel: it reads the
// process-wide recycler counters.
func TestFailedNewSocketReleasesTables(t *testing.T) {
	build := func(breakIt func([]SocketTenant)) error {
		tenants := socketTenants(41, 42)
		breakIt(tenants)
		s, err := NewSocket(tenants, SocketConfig{})
		if err != nil {
			// The caller keeps the prefetchers of a failed build.
			for _, tn := range tenants {
				tn.Config.Prefetcher.(*pdip.PDIP).Release()
			}
			return err
		}
		s.Release()
		return nil
	}
	good := func([]SocketTenant) {}
	for _, c := range []struct {
		name    string
		breakIt func([]SocketTenant)
	}{
		{"tenant 1 L1D", func(ts []SocketTenant) { ts[1].Config.Mem.L1D.Ways = 3 }},
		{"shared L3", func(ts []SocketTenant) {
			for i := range ts {
				ts[i].Config.Mem.L3.Ways = 3
			}
		}},
	} {
		if err := build(good); err != nil {
			t.Fatal(err)
		}
		if build(c.breakIt) == nil {
			t.Fatalf("%s: a socket with a 3-way cache was built", c.name)
		}
		before := recycle.Stats().Fresh
		if err := build(good); err != nil {
			t.Fatal(err)
		}
		if got := recycle.Stats().Fresh - before; got != 0 {
			t.Errorf("%s: the build after a failed one took %d bytes of fresh table, want 0", c.name, got)
		}
	}
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

// TestReleasedSocketPanics: Release ends a socket's life. Running or
// snapshotting it afterwards panics instead of simulating on tables the
// next socket now owns; releasing again, shared prefetcher included, is
// a no-op.
func TestReleasedSocketPanics(t *testing.T) {
	s, err := NewSocket(socketTenants(71, 72), SocketConfig{SharedPrefetcher: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(4000); err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	for name, use := range map[string]func(){
		"Run":      func() { _ = s.Run(1000) },
		"Snapshot": func() { _, _ = s.Snapshot() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released socket did not panic", name)
				}
			}()
			use()
		}()
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
	st2, err := checkpoint.DecodeBytes(buf.Bytes())
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
