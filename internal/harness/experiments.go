package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"pdip/internal/energy"
	"pdip/internal/stats"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the registry key ("fig10", "tab4", ...).
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment and returns its formatted rows.
	Run func(r *Runner, o Options) (string, error)
}

// Experiments returns the full registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: top-down issue-slot breakdown (cassandra)", Fig1},
		{"fig3", "Figure 3: prior techniques vs FDIP baseline", Fig3},
		{"fig4", "Figure 4: FEC lines and FEC decode-starvation shares", Fig4},
		{"fig9", "Figure 9: MPKI at L1I / L2I / L2D / L3", Fig9},
		{"fig10", "Figure 10: speedup comparison (headline)", Fig10},
		{"fig11", "Figure 11: % late prefetches", Fig11},
		{"tab4", "Table 4: PPKI and prefetch accuracy", Tab4},
		{"fig12", "Figure 12: % reduction in FEC stalls", Fig12},
		{"fig13", "Figure 13: PDIP table size sensitivity", Fig13},
		{"tab5", "Table 5: energy and area overhead (McPAT-like)", Tab5},
		{"fig14", "Figure 14: IPC gain at various BTB sizes", Fig14},
		{"fig15", "Figure 15: storage effectiveness (BTB + prefetch table)", Fig15},
		{"fig16", "Figure 16: prefetch trigger distribution", Fig16},
		{"ablations", "Ablations: PDIP design choices (§5.1–§5.3, §6.2)", Ablations},
		{"tracecheck", "Trace replay cross-check: record → ChampSim trace → differential replay vs direct", TraceCheck},
		{"contention", "Contention: 2 tenants on one socket, per-core vs shared PDIP table", Contention},
	}
}

// ExperimentByID returns the registered experiment.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, 0)
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (known: %v)", id, ids)
}

func pct(f float64) string { return fmt.Sprintf("%+.2f%%", f*100) }

// speedups runs policy over benchmarks and returns per-benchmark speedups
// vs baseline plus the geomean.
func (r *Runner) speedups(o Options, policy string) (map[string]float64, float64, error) {
	benches := o.benchmarks()
	out := make(map[string]float64, len(benches))
	var sp []float64
	for _, b := range benches {
		base, err := r.Run(o.spec(b, "baseline"))
		if err != nil {
			return nil, 0, err
		}
		pol, err := r.Run(o.spec(b, policy))
		if err != nil {
			return nil, 0, err
		}
		s := stats.Speedup(base.Res.IPC(), pol.Res.IPC())
		out[b] = s
		sp = append(sp, s)
	}
	return out, stats.Geomean(sp), nil
}

// Fig1 reproduces the top-down breakdown of cassandra (paper: retiring
// 16.9%, front-end 53.6%, bad speculation 10.6%, back-end 18.9%).
func Fig1(r *Runner, o Options) (string, error) {
	res, err := r.Run(o.spec("cassandra", "baseline"))
	if err != nil {
		return "", err
	}
	ret, fe, bs, be := res.Res.Core.TopDown.Shares()
	t := stats.NewTable("category", "share", "paper")
	t.AddRow("Retiring", stats.Pct(ret), "16.9%")
	t.AddRow("Front-End Bound", stats.Pct(fe), "53.6%")
	t.AddRow("Bad Speculation", stats.Pct(bs), "10.6%")
	t.AddRow("Back-End Bound", stats.Pct(be), "18.9%")
	return t.String(), nil
}

// Fig3 compares the prior techniques of §3 against the FDIP baseline.
func Fig3(r *Runner, o Options) (string, error) {
	policies := []string{"2x-il1", "emissary", "eip-analytical", "eip-analytical+emissary", "fec-ideal"}
	return r.speedupTable(o, policies)
}

// Fig10 is the headline speedup comparison of §7.1.
func Fig10(r *Runner, o Options) (string, error) {
	policies := []string{"eip46", "eip-analytical", "emissary", "pdip44", "pdip44+emissary", "pdip44-zerocost"}
	return r.speedupTable(o, policies)
}

func (r *Runner) speedupTable(o Options, policies []string) (string, error) {
	header := append([]string{"benchmark"}, policies...)
	t := stats.NewTable(header...)
	per := make([]map[string]float64, len(policies))
	geo := make([]float64, len(policies))
	for i, p := range policies {
		m, g, err := r.speedups(o, p)
		if err != nil {
			return "", err
		}
		per[i], geo[i] = m, g
	}
	for _, b := range o.benchmarks() {
		row := []string{b}
		for i := range policies {
			row = append(row, pct(per[i][b]))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for i := range policies {
		row = append(row, pct(geo[i]))
	}
	t.AddRow(row...)
	return t.String(), nil
}

// Fig4 reports FEC line share and FEC starvation-cycle share (paper: ~10%
// of lines cause ~62% of decode starvation on average).
func Fig4(r *Runner, o Options) (string, error) {
	t := stats.NewTable("benchmark", "%FEC lines", "%FEC starvation", "%high-cost", "%hc+backend")
	var l, s []float64
	for _, b := range o.benchmarks() {
		res, err := r.Run(o.spec(b, "baseline"))
		if err != nil {
			return "", err
		}
		c := &res.Res.Core
		lineShare := res.Res.FECLinePct()
		stallShare := res.Res.FECStallShare()
		hc, hcb := 0.0, 0.0
		if c.LinesRetired > 0 {
			hc = float64(c.HighCostFECLines) / float64(c.LinesRetired)
			hcb = float64(c.HighCostBackend) / float64(c.LinesRetired)
		}
		t.AddRow(b, stats.Pct(lineShare), stats.Pct(stallShare), stats.Pct(hc), stats.Pct(hcb))
		l = append(l, lineShare)
		s = append(s, stallShare)
	}
	t.AddRow("average", stats.Pct(mean(l)), stats.Pct(mean(s)), "", "")
	return t.String(), nil
}

// Fig9 reports the baseline miss pressure (paper averages: L1I 85.9,
// L2I 12.4, L3 3.06).
func Fig9(r *Runner, o Options) (string, error) {
	t := stats.NewTable("benchmark", "L1I", "L2I", "L2D", "L3")
	var a, b2, c, d []float64
	for _, b := range o.benchmarks() {
		res, err := r.Run(o.spec(b, "baseline"))
		if err != nil {
			return "", err
		}
		t.AddRow(b,
			fmt.Sprintf("%.1f", res.Res.L1IMPKI()),
			fmt.Sprintf("%.1f", res.Res.L2IMPKI()),
			fmt.Sprintf("%.1f", res.Res.L2DMPKI()),
			fmt.Sprintf("%.1f", res.Res.L3MPKI()))
		a = append(a, res.Res.L1IMPKI())
		b2 = append(b2, res.Res.L2IMPKI())
		c = append(c, res.Res.L2DMPKI())
		d = append(d, res.Res.L3MPKI())
	}
	t.AddRow("average", fmt.Sprintf("%.1f", mean(a)), fmt.Sprintf("%.1f", mean(b2)),
		fmt.Sprintf("%.1f", mean(c)), fmt.Sprintf("%.1f", mean(d)))
	return t.String(), nil
}

// Fig11 reports the late-prefetch (partial hit) share for PDIP(44) and
// EIP(46) (paper: PDIP ~12.6% average).
func Fig11(r *Runner, o Options) (string, error) {
	t := stats.NewTable("benchmark", "PDIP(44) %late", "EIP(46) %late")
	var p, e []float64
	for _, b := range o.benchmarks() {
		rp, err := r.Run(o.spec(b, "pdip44"))
		if err != nil {
			return "", err
		}
		re, err := r.Run(o.spec(b, "eip46"))
		if err != nil {
			return "", err
		}
		t.AddRow(b, stats.Pct(rp.Res.LatePrefetchRate()), stats.Pct(re.Res.LatePrefetchRate()))
		p = append(p, rp.Res.LatePrefetchRate())
		e = append(e, re.Res.LatePrefetchRate())
	}
	t.AddRow("average", stats.Pct(mean(p)), stats.Pct(mean(e)))
	return t.String(), nil
}

// Tab4 reports mean PPKI and prefetch accuracy (paper: EIP(46) 22/44%,
// EIP-Analytical 40/45%, PDIP(11) 21/55%, PDIP(44) 32/54%).
func Tab4(r *Runner, o Options) (string, error) {
	policies := []string{"eip46", "eip-analytical", "pdip11", "pdip44"}
	t := stats.NewTable("metric", "EIP(46)", "EIP-Analytical", "PDIP(11)", "PDIP(44)")
	ppki := []string{"PPKI"}
	acc := []string{"Accuracy"}
	for _, p := range policies {
		var pv, av []float64
		for _, b := range o.benchmarks() {
			res, err := r.Run(o.spec(b, p))
			if err != nil {
				return "", err
			}
			pv = append(pv, res.Res.PPKI())
			av = append(av, res.Res.PrefetchAccuracy())
		}
		ppki = append(ppki, fmt.Sprintf("%.1f", mean(pv)))
		acc = append(acc, stats.Pct(mean(av)))
	}
	t.AddRow(ppki...)
	t.AddRow(acc...)
	return t.String(), nil
}

// Fig12 reports the reduction in FEC stall cycles vs baseline (paper:
// PDIP ~42% average, EIP ~19%).
func Fig12(r *Runner, o Options) (string, error) {
	t := stats.NewTable("benchmark", "PDIP(44)", "EIP(46)", "PDIP(44)+EMISSARY")
	var p, e, pe []float64
	reduction := func(bench, pol string) (float64, error) {
		base, err := r.Run(o.spec(bench, "baseline"))
		if err != nil {
			return 0, err
		}
		res, err := r.Run(o.spec(bench, pol))
		if err != nil {
			return 0, err
		}
		b := float64(base.Res.Core.FECStallCycles)
		if b == 0 {
			return 0, nil
		}
		return 1 - float64(res.Res.Core.FECStallCycles)/b, nil
	}
	for _, b := range o.benchmarks() {
		rp, err := reduction(b, "pdip44")
		if err != nil {
			return "", err
		}
		re, err := reduction(b, "eip46")
		if err != nil {
			return "", err
		}
		rpe, err := reduction(b, "pdip44+emissary")
		if err != nil {
			return "", err
		}
		t.AddRow(b, pct(rp), pct(re), pct(rpe))
		p = append(p, rp)
		e = append(e, re)
		pe = append(pe, rpe)
	}
	t.AddRow("average", pct(mean(p)), pct(mean(e)), pct(mean(pe)))
	return t.String(), nil
}

// Fig13 sweeps PDIP table sizes (paper: strong scaling to 43.5KB, then
// diminishing returns).
func Fig13(r *Runner, o Options) (string, error) {
	return r.speedupTable(o, []string{"pdip11", "pdip22", "pdip44", "pdip87"})
}

// Tab5 reports the analytical energy/area overhead of the PDIP table
// (paper: energy 0.25/0.55/0.62/0.64%, area 0.31/0.52/0.96/2.84%).
func Tab5(r *Runner, o Options) (string, error) {
	t := stats.NewTable("metric", "PDIP(11)", "PDIP(22)", "PDIP(44)", "PDIP(87)")
	erow := []string{"Energy"}
	arow := []string{"Area"}
	for _, ways := range []int{2, 4, 8, 16} {
		// Activity factor: table lookups per cycle, averaged over the
		// benchmark suite with PDIP(44) (lookup rate is size-independent:
		// one probe per new FTQ entry line).
		res, err := r.Run(o.spec("cassandra", "pdip44"))
		if err != nil {
			return "", err
		}
		lookupsPerCycle := float64(res.Res.PQ.Enqueued+res.Res.PQ.Issued) / float64(res.Res.Core.Cycles+1)
		m := energy.PDIPOverhead(ways, lookupsPerCycle)
		erow = append(erow, stats.Pct(m.EnergyFrac))
		arow = append(arow, stats.Pct(m.AreaFrac))
	}
	t.AddRow(erow...)
	t.AddRow(arow...)
	return t.String(), nil
}

// fig14BTBs are the swept BTB capacities (entries).
var fig14BTBs = []int{4096, 8192, 16384, 32768, 65536, 131072}

// Fig14 sweeps BTB sizes, reporting each policy's gain over the FDIP
// baseline at the same BTB size.
func Fig14(r *Runner, o Options) (string, error) {
	policies := []string{"eip46", "pdip11", "pdip44", "pdip44+emissary"}
	header := append([]string{"BTB entries"}, policies...)
	t := stats.NewTable(header...)
	for _, btb := range fig14BTBs {
		row := []string{fmt.Sprintf("%dK", btb/1024)}
		for _, p := range policies {
			var sp []float64
			for _, b := range o.benchmarks() {
				bs := o.spec(b, "baseline")
				bs.BTBEntries = btb
				base, err := r.Run(bs)
				if err != nil {
					return "", err
				}
				ps := o.spec(b, p)
				ps.BTBEntries = btb
				pol, err := r.Run(ps)
				if err != nil {
					return "", err
				}
				sp = append(sp, stats.Speedup(base.Res.IPC(), pol.Res.IPC()))
			}
			row = append(row, pct(stats.Geomean(sp)))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// Fig15 reports the storage-effectiveness frontier: IPC gain over the
// 4K-BTB FDIP baseline as a function of BTB+prefetch-table storage.
func Fig15(r *Runner, o Options) (string, error) {
	type point struct {
		label     string
		storageKB float64
		gain      float64
	}
	var pts []point

	// Reference: geomean IPC of the 4K-entry-BTB FDIP baseline.
	refIPC := func() (float64, error) {
		var ipcs []float64
		for _, b := range o.benchmarks() {
			s := o.spec(b, "baseline")
			s.BTBEntries = 4096
			res, err := r.Run(s)
			if err != nil {
				return 0, err
			}
			ipcs = append(ipcs, res.Res.IPC())
		}
		return stats.GeomeanIPC(ipcs), nil
	}
	ref, err := refIPC()
	if err != nil {
		return "", err
	}

	for _, btb := range []int{4096, 8192, 16384, 32768, 65536} {
		for _, pol := range []string{"baseline", "pdip11", "pdip44", "eip46"} {
			var ipcs []float64
			var kb float64
			for _, b := range o.benchmarks() {
				s := o.spec(b, pol)
				s.BTBEntries = btb
				res, err := r.Run(s)
				if err != nil {
					return "", err
				}
				ipcs = append(ipcs, res.Res.IPC())
				kb = res.Res.BTBKB + res.Res.PrefetcherKB
			}
			g := stats.GeomeanIPC(ipcs)/ref - 1
			pts = append(pts, point{fmt.Sprintf("%s@%dK-BTB", pol, btb/1024), kb, g})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].storageKB < pts[j].storageKB })
	t := stats.NewTable("configuration", "storage KB", "gain vs 4K-BTB FDIP")
	for _, p := range pts {
		t.AddRow(p.label, fmt.Sprintf("%.1f", p.storageKB), pct(p.gain))
	}
	return t.String(), nil
}

// Fig16 reports the trigger-class distribution of issued PDIP prefetches
// (paper: ~89% mispredict triggers, ~11% last-taken).
func Fig16(r *Runner, o Options) (string, error) {
	t := stats.NewTable("benchmark", "%mispredict triggers", "%last-taken triggers")
	var m, l []float64
	for _, b := range o.benchmarks() {
		res, err := r.Run(o.spec(b, "pdip44"))
		if err != nil {
			return "", err
		}
		mp, lt := res.Res.TriggerDistribution()
		t.AddRow(b, stats.Pct(mp), stats.Pct(lt))
		m = append(m, mp)
		l = append(l, lt)
	}
	t.AddRow("average", stats.Pct(mean(m)), stats.Pct(mean(l)))
	return t.String(), nil
}

// Ablations compares the design choices DESIGN.md calls out: insertion
// probability, the high-cost/back-end-stall candidate filter, the offset
// mask, return-trigger exclusion, the PQ MSHR reserve, and FDIP itself.
func Ablations(r *Runner, o Options) (string, error) {
	return r.speedupTable(o, []string{
		"pdip44", "pdip44-insert100", "pdip44-insert3", "pdip44-allfec",
		"pdip44-nomask", "pdip44-returns", "pdip44-reserve0", "no-fdip",
	})
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TraceCheck is the self-validation experiment of the trace front-end:
// each selected benchmark is recorded to a ChampSim trace and replayed in
// differential mode under the headline policies, and every counter is
// diffed against the direct synthetic run. An "identical" row means the
// record→decode→replay loop is bit-exact for that cell; anything else
// prints the divergence count (and the run itself fails on decoder
// divergence, so a silent wrong-stream replay cannot score "identical").
func TraceCheck(r *Runner, o Options) (string, error) {
	dir, err := os.MkdirTemp("", "pdip-tracecheck-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)

	to := o
	to.TraceDir = dir
	to.TraceDifferential = true
	policies := []string{"baseline", "pdip44", "eip46"}
	t := stats.NewTable(append([]string{"benchmark", "records"}, policies...)...)
	for _, b := range o.benchmarks() {
		rspec := o.spec(b, "baseline")
		path := filepath.Join(dir, b+".champsim")
		if err := RecordTrace(rspec, path, 0); err != nil {
			return "", err
		}
		warmup, measure := rspec.budgets()
		row := []string{b, fmt.Sprintf("%d", warmup+measure+TraceSlack)}
		for _, p := range policies {
			direct, err := r.Run(o.spec(b, p))
			if err != nil {
				return "", err
			}
			replay, err := r.Run(to.spec(b, p))
			if err != nil {
				return "", err
			}
			if diff := direct.Metrics.Diff(replay.Metrics); len(diff) > 0 {
				row = append(row, fmt.Sprintf("%d diffs", len(diff)))
			} else {
				row = append(row, "identical")
			}
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// Contention is the multi-tenant extension experiment: two tenants
// (cassandra and tomcat, both under PDIP) co-run on one socket with a
// shared L2/L3, once with per-core PDIP tables and once sharing one
// table, against their solo single-core runs. Per tenant it reports the
// IPC under each mode plus the shared-level interference it suffered in
// the per-core-table co-run: cross-tenant evictions and MSHR steals at
// L2. The deltas quantify exactly the prefetcher-vs-prefetcher cache
// pressure a one-core simulator cannot observe.
func Contention(r *Runner, o Options) (string, error) {
	benches := []string{"cassandra", "tomcat"}
	policy := "pdip44"
	specs := make([]RunSpec, len(benches))
	for i, b := range benches {
		specs[i] = o.spec(b, policy)
	}

	perCore, err := ExecuteSocket(specs, SocketOptions{})
	if err != nil {
		return "", err
	}
	shared, err := ExecuteSocket(specs, SocketOptions{SharedPrefetcher: true})
	if err != nil {
		return "", err
	}

	t := stats.NewTable("tenant", "solo IPC", "co-run IPC", "co-run IPC (shared table)", "L2 x-evict", "L2 MSHR steals")
	for i, b := range benches {
		solo, err := r.Run(specs[i])
		if err != nil {
			return "", err
		}
		uc := perCore.Interference.Counters
		p := fmt.Sprintf("uncore.tenant%d", i)
		t.AddRow(
			b+"/"+policy,
			fmt.Sprintf("%.3f", solo.Res.IPC()),
			fmt.Sprintf("%.3f", perCore.Tenants[i].Res.IPC()),
			fmt.Sprintf("%.3f", shared.Tenants[i].Res.IPC()),
			fmt.Sprintf("%d", uc[p+".l2.cross_evictions"]),
			fmt.Sprintf("%d", uc[p+".l2.mshr_steals"]),
		)
	}
	return t.String(), nil
}
