package harness

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_metrics.json from the current simulator")

const goldenPath = "testdata/golden_metrics.json"

// goldenSpecs is the regression grid: three benchmarks with distinct
// front-end profiles × the three prefetch policies the paper compares
// (FDIP baseline, PDIP, EIP), all at QuickOptions scale.
func goldenSpecs() []RunSpec {
	o := QuickOptions()
	var specs []RunSpec
	for _, b := range []string{"cassandra", "tomcat", "kafka"} {
		for _, p := range []string{"baseline", "pdip44", "eip46"} {
			specs = append(specs, o.spec(b, p))
		}
	}
	return specs
}

// goldenSocketKey names the grid's two-tenant cell: cassandra/pdip44 and
// tomcat/eip46 as co-tenants of one owner-tracked uncore. Its counters are
// the socket's CombinedSnapshot, so the cell pins the tenant<i>.*
// namespaces, the uncore.tenant<i>.* traffic counters and the per-owner
// interference counters that no single-core snapshot holds.
const goldenSocketKey = "socket/cassandra/pdip44+tomcat/eip46"

func goldenSocketSpecs() []RunSpec {
	o := QuickOptions()
	return []RunSpec{o.spec("cassandra", "pdip44"), o.spec("tomcat", "eip46")}
}

// goldenRun captures the current counter values for every golden spec
// and the two-tenant cell. Counters only: they are integer-exact across
// platforms, whereas derived float gauges could legitimately differ in
// the last bit across architectures (e.g. fused multiply-add
// contraction).
func goldenRun(t *testing.T) map[string]map[string]uint64 {
	t.Helper()
	r := NewRunner(0)
	got := make(map[string]map[string]uint64)
	specs := goldenSpecs()
	if _, err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		res, err := r.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		got[spec.Key()] = res.Metrics.Counters
	}
	sock, err := ExecuteSocket(goldenSocketSpecs(), SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got[goldenSocketKey] = sock.Combined.Counters
	return got
}

// TestGoldenMetrics compares every counter of the 3×3 golden grid and the
// two-tenant cell against testdata/golden_metrics.json. Any drift — an
// off-by-one in a resteer counter, a changed prefetch drop — fails with a
// per-key readable diff.
// After an intentional simulator change, regenerate with:
//
//	go test ./internal/harness -run TestGoldenMetrics -update
func TestGoldenMetrics(t *testing.T) {
	got := goldenRun(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d runs", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}

	var diff []string
	keys := make(map[string]struct{}, len(want)+len(got))
	for k := range want {
		keys[k] = struct{}{}
	}
	for k := range got {
		keys[k] = struct{}{}
	}
	for run := range keys {
		w, wok := want[run]
		g, gok := got[run]
		switch {
		case !wok:
			diff = append(diff, run+": run missing from golden file")
			continue
		case !gok:
			diff = append(diff, run+": run missing from current results")
			continue
		}
		names := make(map[string]struct{}, len(w)+len(g))
		for n := range w {
			names[n] = struct{}{}
		}
		for n := range g {
			names[n] = struct{}{}
		}
		for n := range names {
			wv, wok := w[n]
			gv, gok := g[n]
			switch {
			case !wok:
				diff = append(diff, run+" "+n+": new counter (not in golden)")
			case !gok:
				diff = append(diff, run+" "+n+": counter removed")
			case wv != gv:
				diff = append(diff, run+" "+n+": golden="+utoa(wv)+" got="+utoa(gv))
			}
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		show := diff
		if len(show) > 40 {
			show = show[:40]
		}
		t.Errorf("golden metrics drift (%d differences; rerun with -update if intentional):\n  %s",
			len(diff), strings.Join(show, "\n  "))
	}
}

func utoa(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestGoldenMetricsTraceRoundTrip is the round-trip property test of the
// trace front-end: every golden-grid cell is re-run from a ChampSim trace
// recorded out of its own synthetic workload, in differential mode (the
// decoder is cross-checked instruction-by-instruction and any divergence
// fails the run), and every counter must be bit-identical to the golden
// file — i.e. to direct synthetic execution. Record→encode→decode→replay
// is a lossless loop across benchmarks and policies, or this fails with
// the exact counter that drifted.
func TestGoldenMetricsTraceRoundTrip(t *testing.T) {
	if *updateGolden {
		t.Skip("golden file being regenerated by TestGoldenMetrics")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}

	// One trace per benchmark serves all three policies: the oracle
	// stream depends only on the workload and seed, not the prefetcher.
	dir := t.TempDir()
	o := QuickOptions()
	recorded := map[string]bool{}
	specs := goldenSpecs()
	for _, spec := range specs {
		if recorded[spec.Benchmark] {
			continue
		}
		if err := RecordTrace(spec, filepath.Join(dir, spec.Benchmark+".champsim"), 0); err != nil {
			t.Fatal(err)
		}
		recorded[spec.Benchmark] = true
	}

	o.TraceDir = dir
	o.TraceDifferential = true
	r := NewRunner(0)
	for _, base := range specs {
		spec := o.spec(base.Benchmark, base.Policy)
		res, err := r.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		golden, ok := want[base.Key()]
		if !ok {
			t.Fatalf("golden file missing %s", base.Key())
		}
		var diff []string
		for n, wv := range golden {
			if gv, ok := res.Metrics.Counters[n]; !ok || gv != wv {
				diff = append(diff, n+": golden="+utoa(wv)+" replay="+utoa(res.Metrics.Counters[n]))
			}
		}
		for n := range res.Metrics.Counters {
			if _, ok := golden[n]; !ok {
				diff = append(diff, n+": counter only in replay")
			}
		}
		if len(diff) > 0 {
			sort.Strings(diff)
			if len(diff) > 20 {
				diff = diff[:20]
			}
			t.Errorf("%s: trace replay is not bit-identical to direct execution (%s):\n  %s",
				base.Key(), spec.Key(), strings.Join(diff, "\n  "))
		}
	}
}

// TestGoldenCoverage asserts the golden grid actually spans the subsystems
// the acceptance criteria name: at least 20 counters touching core,
// frontend, cache, and pdip name spaces.
func TestGoldenCoverage(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want map[string]map[string]uint64
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	run, ok := want["cassandra/pdip44"]
	if !ok {
		t.Fatal("golden file missing cassandra/pdip44")
	}
	if len(run) < 20 {
		t.Errorf("golden snapshot has %d counters, want >= 20", len(run))
	}
	for _, prefix := range []string{"core.", "frontend.", "cache.", "pdip.", "bpu.", "pq."} {
		found := false
		for name := range run {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("golden snapshot has no %q counters", prefix)
		}
	}
}
