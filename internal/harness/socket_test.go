package harness

import (
	"sort"
	"strings"
	"testing"
)

// combinedKey flattens a socket result into one sorted counter map
// (tenant counters prefixed, uncore counters as-is) for bit-exact
// cross-run comparison.
func combinedCounters(res *SocketRunResult) map[string]uint64 {
	out := make(map[string]uint64)
	for i, tr := range res.Tenants {
		for n, v := range tr.Metrics.Counters {
			out["tenant"+string(rune('0'+i))+"."+n] = v
		}
	}
	for n, v := range res.Interference.Counters {
		out[n] = v
	}
	return out
}

// TestSocketContentionInterference is the acceptance check for the
// multi-tenant path: a 2-tenant run must report per-tenant IPC/MPKI,
// nonzero shared-level interference (cross-tenant evictions and MSHR
// steals under contention), and be bit-deterministic across replays.
func TestSocketContentionInterference(t *testing.T) {
	o := QuickOptions()
	specs := []RunSpec{o.spec("cassandra", "pdip44"), o.spec("tomcat", "pdip44")}
	// Reserve a single guaranteed L2 MSHR per tenant, leaving a deep
	// shared pool — the configuration under which steals are the common
	// case rather than an edge case.
	so := SocketOptions{L2Reserve: 1, L3Reserve: 1}

	run := func() *SocketRunResult {
		res, err := ExecuteSocket(specs, so)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()

	for i, tr := range a.Tenants {
		// The quota crossing lands at cycle granularity: within one retire
		// width of the budget, exactly like Core.Run (TestRunRetiresExactly).
		if n := tr.Res.Core.Instructions; n < specs[i].Measure || n > specs[i].Measure+16 {
			t.Errorf("tenant %d measured %d instructions, want ≈%d", i, n, specs[i].Measure)
		}
		if tr.Res.IPC() <= 0 {
			t.Errorf("tenant %d IPC %v not positive", i, tr.Res.IPC())
		}
		if tr.Res.L1IMPKI() <= 0 {
			t.Errorf("tenant %d L1I MPKI %v not positive", i, tr.Res.L1IMPKI())
		}
	}

	sum := func(res *SocketRunResult, suffix string) uint64 {
		var total uint64
		for n, v := range res.Interference.Counters {
			if strings.HasSuffix(n, suffix) {
				total += v
			}
		}
		return total
	}
	if got := sum(a, ".cross_evictions"); got == 0 {
		t.Error("2-tenant contention produced zero cross-tenant evictions at the shared levels")
	}
	if got := sum(a, ".mshr_steals"); got == 0 {
		t.Error("2-tenant contention produced zero MSHR steals at the shared levels")
	}
	if got := sum(a, ".requests"); got == 0 {
		t.Error("uncore saw zero tenant requests")
	}

	ca, cb := combinedCounters(a), combinedCounters(b)
	var diff []string
	for n, v := range ca {
		if cb[n] != v {
			diff = append(diff, n)
		}
	}
	for n := range cb {
		if _, ok := ca[n]; !ok {
			diff = append(diff, n)
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		if len(diff) > 20 {
			diff = diff[:20]
		}
		t.Errorf("identical 2-tenant runs diverged in %d counters:\n  %s", len(diff), strings.Join(diff, "\n  "))
	}
}

// TestSocketSharedPrefetcherRuns pins the one-PDIP-table-per-socket mode:
// it must run to completion, stay deterministic, and actually change
// prefetch behaviour relative to per-core tables.
func TestSocketSharedPrefetcherRuns(t *testing.T) {
	o := QuickOptions()
	specs := []RunSpec{o.spec("cassandra", "pdip44"), o.spec("kafka", "pdip44")}
	shared, err := ExecuteSocket(specs, SocketOptions{SharedPrefetcher: true})
	if err != nil {
		t.Fatal(err)
	}
	private, err := ExecuteSocket(specs, SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range specs {
		if !shared.Tenants[i].Metrics.Equal(private.Tenants[i].Metrics) {
			same = false
		}
	}
	if same {
		t.Error("shared-table and per-core-table runs are bit-identical — the SharedPrefetcher knob is not wired")
	}
}

// TestExecuteSocketRejectsMixedBudgets pins the one-shared-window
// contract.
func TestExecuteSocketRejectsMixedBudgets(t *testing.T) {
	o := QuickOptions()
	a, b := o.spec("cassandra", "baseline"), o.spec("tomcat", "baseline")
	b.Measure *= 2
	if _, err := ExecuteSocket([]RunSpec{a, b}, SocketOptions{}); err == nil {
		t.Fatal("ExecuteSocket accepted tenants with differing measure budgets")
	}
}
