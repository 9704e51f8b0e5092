package core

import (
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/eip"
	"pdip/internal/pdip"
	"pdip/internal/prefetch"
	"pdip/internal/rdip"
)

func testProgram(seed uint64) *cfg.Program {
	p := cfg.DefaultParams()
	p.Seed = seed
	p.NumFuncs = 256
	return cfg.MustGenerate(p)
}

func testConfig(seed uint64) Config {
	c := DefaultConfig()
	c.Seed = seed
	return c
}

func TestDeterminism(t *testing.T) {
	prog := testProgram(1)
	run := func() Result {
		co := MustNew(prog, testConfig(7))
		if err := co.Run(60000); err != nil {
			t.Fatal(err)
		}
		return co.Result()
	}
	a, b := run(), run()
	if a.Core.Cycles != b.Core.Cycles || a.Core.Instructions != b.Core.Instructions ||
		a.L1I.Fills != b.L1I.Fills || a.Core.FECLines != b.Core.FECLines {
		t.Fatalf("identical runs diverged: %+v vs %+v", a.Core, b.Core)
	}
}

func TestSeedsChangeOutcome(t *testing.T) {
	prog := testProgram(2)
	r1 := MustNew(prog, testConfig(1))
	r2 := MustNew(prog, testConfig(2))
	if err := r1.Run(40000); err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(40000); err != nil {
		t.Fatal(err)
	}
	if r1.Cycles() == r2.Cycles() {
		t.Fatal("different seeds produced identical cycle counts (suspicious)")
	}
}

func TestRunRetiresExactly(t *testing.T) {
	co := MustNew(testProgram(3), testConfig(3))
	if err := co.Run(12345); err != nil {
		t.Fatal(err)
	}
	got := co.Retired()
	// The retire loop stops at cycle granularity: within one retire width.
	if got < 12345 || got > 12345+12 {
		t.Fatalf("retired %d, want ≈12345", got)
	}
}

func TestResetStatsKeepsArchState(t *testing.T) {
	co := MustNew(testProgram(4), testConfig(4))
	if err := co.Run(50000); err != nil {
		t.Fatal(err)
	}
	wr := co.Result()
	warmIPC := wr.IPC()
	co.ResetStats()
	if co.Result().Core.Cycles != 0 {
		t.Fatal("stats survived reset")
	}
	if err := co.Run(50000); err != nil {
		t.Fatal(err)
	}
	mr := co.Result()
	measIPC := mr.IPC()
	// Warm structures should not be slower than the cold phase.
	if measIPC < warmIPC*0.8 {
		t.Fatalf("post-warmup IPC %.3f much worse than cold %.3f", measIPC, warmIPC)
	}
}

func TestTopDownSlotsConserved(t *testing.T) {
	co := MustNew(testProgram(5), testConfig(5))
	if err := co.Run(50000); err != nil {
		t.Fatal(err)
	}
	r := co.Result()
	slots := r.Core.TopDown.Total()
	want := r.Core.Cycles * uint64(co.cfg.DecodeWidth)
	if slots != want {
		t.Fatalf("top-down slots %d, want cycles×width %d", slots, want)
	}
	ret, fe, bs, be := r.Core.TopDown.Shares()
	sum := ret + fe + bs + be
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %f", sum)
	}
}

func TestConfigValidation(t *testing.T) {
	prog := testProgram(6)
	bad := testConfig(1)
	bad.FTQDepth = 0
	if _, err := New(prog, bad); err == nil {
		t.Fatal("FTQDepth=0 accepted")
	}
	bad = testConfig(1)
	bad.Emissary = true // without protected ways
	if _, err := New(prog, bad); err == nil {
		t.Fatal("Emissary without protected ways accepted")
	}
	bad = testConfig(1)
	bad.Mem.L2.ProtectedWays = 4 // without Emissary
	if _, err := New(prog, bad); err == nil {
		t.Fatal("protected ways without Emissary accepted")
	}
	bad = testConfig(1)
	bad.MemOpFrac = 1.5
	if _, err := New(prog, bad); err == nil {
		t.Fatal("MemOpFrac=1.5 accepted")
	}
}

func TestFECConditionsRequireRetirement(t *testing.T) {
	// FEC lines must be a subset of retired line episodes, and FEC stall
	// cycles must not exceed attributed starvation.
	co := MustNew(testProgram(7), testConfig(8))
	if err := co.Run(80000); err != nil {
		t.Fatal(err)
	}
	r := co.Result()
	c := &r.Core
	if c.FECLines > c.LinesRetired {
		t.Fatalf("FEC lines %d exceed retired episodes %d", c.FECLines, c.LinesRetired)
	}
	if c.HighCostFECLines > c.FECLines || c.HighCostBackend > c.HighCostFECLines {
		t.Fatalf("FEC hierarchy violated: %d ≥ %d ≥ %d", c.FECLines, c.HighCostFECLines, c.HighCostBackend)
	}
	if c.FECStallCycles+c.NonFECStall > c.StarvedOnMiss {
		t.Fatalf("attributed stalls (%d+%d) exceed starved-on-miss %d",
			c.FECStallCycles, c.NonFECStall, c.StarvedOnMiss)
	}
	if c.StarvedOnMiss+c.StarveNoEntry+c.StarvePipe+c.StarveOther != c.DecodeStarvedCycles {
		t.Fatal("starvation categories do not sum to the total")
	}
}

func TestWrongPathNeverRetires(t *testing.T) {
	// Instructions counts correct-path only; the oracle stream ordering
	// is preserved (checked indirectly: retired == requested budget and
	// resteer machinery fired).
	co := MustNew(testProgram(8), testConfig(9))
	if err := co.Run(60000); err != nil {
		t.Fatal(err)
	}
	r := co.Result()
	if r.Core.WrongPathInstructions == 0 {
		t.Fatal("no wrong-path instructions modelled")
	}
	total := r.Core.ResteerMispredict + r.Core.ResteerBTBMiss + r.Core.ResteerReturn
	if total == 0 {
		t.Fatal("no resteers fired")
	}
}

func TestEmissaryPromotes(t *testing.T) {
	c := testConfig(10)
	c.Emissary = true
	c.Mem.L2.ProtectedWays = 8
	c.EmissaryPromoteProb = 1.0 // promote every FEC line for the test
	co := MustNew(testProgram(9), c)
	if err := co.Run(80000); err != nil {
		t.Fatal(err)
	}
	if co.Result().Core.FECLines > 0 && len(co.promoted) == 0 {
		t.Fatal("FEC lines seen but nothing promoted at probability 1")
	}
}

func TestFECIdealNotSlower(t *testing.T) {
	prog := testProgram(11)
	baseCfg := testConfig(12)
	base := MustNew(prog, baseCfg)
	if err := base.Run(150000); err != nil {
		t.Fatal(err)
	}
	idealCfg := testConfig(12)
	idealCfg.FECIdeal = true
	idealCfg.Emissary = true
	idealCfg.Mem.L2.ProtectedWays = 8
	ideal := MustNew(prog, idealCfg)
	if err := ideal.Run(150000); err != nil {
		t.Fatal(err)
	}
	ir, br := ideal.Result(), base.Result()
	if ir.IPC() < br.IPC()*0.99 {
		t.Fatalf("FEC-Ideal IPC %.3f below baseline %.3f", ir.IPC(), br.IPC())
	}
}

func TestPDIPIntegration(t *testing.T) {
	c := testConfig(13)
	pc := pdip.DefaultConfig()
	pc.Seed = c.Seed
	pc.InsertProb = 1.0
	pc.RequireHighCost = false
	p := pdip.New(pc)
	c.Prefetcher = p
	co := MustNew(testProgram(12), c)
	if err := co.Run(150000); err != nil {
		t.Fatal(err)
	}
	r := co.Result()
	if r.PrefetcherName != "pdip" || r.PrefetcherKB != 43.5 {
		t.Fatalf("prefetcher identity: %s %.1fKB", r.PrefetcherName, r.PrefetcherKB)
	}
	if p.Stats.Lookups == 0 {
		t.Fatal("PDIP never consulted")
	}
	if r.Core.FECLines > 100 && r.PQ.Enqueued == 0 {
		t.Fatal("FEC lines observed but no prefetch requests generated")
	}
}

func TestEIPIntegration(t *testing.T) {
	c := testConfig(14)
	c.Prefetcher = eip.New(eip.DefaultConfig())
	co := MustNew(testProgram(13), c)
	if err := co.Run(150000); err != nil {
		t.Fatal(err)
	}
	r := co.Result()
	if r.PrefetcherName != "eip" {
		t.Fatalf("prefetcher name %q", r.PrefetcherName)
	}
	if r.PQ.Issued == 0 {
		t.Fatal("EIP issued nothing on an I-pressured program")
	}
}

func TestNoFDIPIsSlower(t *testing.T) {
	prog := testProgram(15)
	fdip := MustNew(prog, testConfig(16))
	if err := fdip.Run(150000); err != nil {
		t.Fatal(err)
	}
	cfgNo := testConfig(16)
	cfgNo.FTQDepth = 1
	cfgNo.DisableFDIPPrefetch = true
	noFdip := MustNew(prog, cfgNo)
	if err := noFdip.Run(150000); err != nil {
		t.Fatal(err)
	}
	nr, fr := noFdip.Result(), fdip.Result()
	if nr.IPC() >= fr.IPC() {
		t.Fatalf("coupled front-end IPC %.3f not below FDIP %.3f (the paper reports FDIP +27.1%%)",
			nr.IPC(), fr.IPC())
	}
}

// TestCollectSets checks the FEC classification CollectSets turns on:
// under PDIP every FEC episode lands in exactly one request-age bucket and
// exactly one holds class, so each family sums to core.fec.lines; with
// CollectSets off all seven counters read 0.
func TestCollectSets(t *testing.T) {
	reqAge := []string{"core.fec.req_age.never", "core.fec.req_age.gt_10k",
		"core.fec.req_age.100_to_10k", "core.fec.req_age.le_100"}
	holds := []string{"core.fec.holds.no_trigger", "core.fec.holds.table_holds_pair",
		"core.fec.holds.table_missing_pair"}
	for _, on := range []bool{true, false} {
		c := testConfig(17)
		c.CollectSets = on
		pc := pdip.DefaultConfig()
		pc.InsertProb = 1.0
		pc.RequireHighCost = false
		c.Prefetcher = pdip.New(pc)
		co := MustNew(prog17, c)
		if err := co.Run(120000); err != nil {
			t.Fatal(err)
		}
		snap := co.MetricsSnapshot()
		read := func(name string) uint64 {
			v, ok := snap.Counter(name)
			if !ok {
				t.Fatalf("counter %s not registered", name)
			}
			return v
		}
		lines := read("core.fec.lines")
		if lines == 0 {
			t.Fatal("no FEC episodes to classify")
		}
		want := uint64(0)
		if on {
			want = lines
		}
		for _, family := range [][]string{reqAge, holds} {
			var sum uint64
			for _, name := range family {
				sum += read(name)
			}
			if sum != want {
				t.Errorf("CollectSets=%v: %v sum to %d, want %d", on, family, sum, want)
			}
		}
	}
}

var prog17 = testProgram(17)

func TestCycleBudgetGuard(t *testing.T) {
	c := testConfig(18)
	c.MaxCyclesPerInst = 1 // impossible for a crippled 1-wide machine
	c.DecodeWidth = 1
	c.RetireWidth = 1
	c.FTQDepth = 1
	c.DisableFDIPPrefetch = true
	co := MustNew(testProgram(18), c)
	if err := co.Run(1_000_000); err == nil {
		t.Fatal("cycle budget guard did not trip")
	}
}

func TestRetireEmitterIntegration(t *testing.T) {
	// A retire-time prefetcher (next-line) must get its pending requests
	// drained into the PQ and issued.
	c := testConfig(20)
	nl := prefetch.NewNextLine(2)
	c.Prefetcher = nl
	co := MustNew(testProgram(20), c)
	if err := co.Run(120000); err != nil {
		t.Fatal(err)
	}
	r := co.Result()
	if r.PQ.Enqueued == 0 {
		t.Fatal("retire-emitter requests never reached the PQ")
	}
}

func TestCallReturnObserverIntegration(t *testing.T) {
	c := testConfig(21)
	rd := rdip.New(rdip.DefaultConfig())
	c.Prefetcher = rd
	co := MustNew(testProgram(21), c)
	if err := co.Run(120000); err != nil {
		t.Fatal(err)
	}
	if rd.Stats.ContextSwitches == 0 {
		t.Fatal("RDIP never notified of calls/returns")
	}
}
