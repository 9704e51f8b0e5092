package policy

import (
	"strings"
	"testing"

	"pdip/internal/core"
	"pdip/internal/workload"
)

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range All() {
		if p.Name == "" || p.Description == "" || p.Apply == nil {
			t.Fatalf("incomplete policy %+v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate policy name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestTable3PoliciesPresent(t *testing.T) {
	for _, want := range []string{
		"baseline", "emissary", "2x-il1",
		"eip46", "eip-analytical",
		"pdip11", "pdip22", "pdip44", "pdip87",
		"pdip44+emissary", "pdip44-zerocost", "fec-ideal",
	} {
		if _, err := ByName(want); err != nil {
			t.Fatalf("missing policy %q: %v", want, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestByNameCopiesOutOfRegistry: the registry is built once, a lookup
// copies a policy out of it without allocating, and changing the copy
// leaves the registry as it was.
func TestByNameCopiesOutOfRegistry(t *testing.T) {
	var p Policy
	if n := testing.AllocsPerRun(100, func() { p, _ = ByName("pdip44") }); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
	p.Name, p.Description, p.Apply = "changed", "changed", nil
	All()[0].Apply = nil
	for _, name := range []string{"pdip44", All()[0].Name} {
		got, err := ByName(name)
		if err != nil || got.Name != name || got.Description == "changed" || got.Apply == nil {
			t.Errorf("mutating returned policies changed %q in the registry: %+v (%v)", name, got, err)
		}
	}
}

func TestEveryPolicyYieldsValidConfig(t *testing.T) {
	for _, p := range All() {
		c := core.DefaultConfig()
		p.Apply(&c)
		if err := c.Validate(); err != nil {
			t.Fatalf("policy %q produces invalid config: %v", p.Name, err)
		}
	}
}

// TestEveryPolicyRunsOnCore is the registry's end-to-end gate: each
// policy must not only validate but actually build a core and simulate.
// A policy whose knobs only explode at construction or mid-run (nil
// prefetcher hooks, zero-width structures, bad cache geometry) is caught
// here rather than deep inside an experiment grid.
func TestEveryPolicyRunsOnCore(t *testing.T) {
	prof, err := workload.ByName("kafka")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c := core.DefaultConfig()
			c.Seed = prof.CFG.Seed ^ 0x5eed
			c.MemOpFrac = prof.MemOpFrac
			p.Apply(&c)
			co, err := core.New(prog, c)
			if err != nil {
				t.Fatalf("policy %q fails core construction: %v", p.Name, err)
			}
			if err := co.Run(1000); err != nil {
				t.Fatalf("policy %q fails simulation: %v", p.Name, err)
			}
			r := co.Result()
			if r.Core.Instructions < 1000 || r.Core.Cycles == 0 {
				t.Fatalf("policy %q retired %d instructions in %d cycles",
					p.Name, r.Core.Instructions, r.Core.Cycles)
			}
		})
	}
}

func TestPoliciesCreateFreshPrefetchers(t *testing.T) {
	p, err := ByName("pdip44")
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := core.DefaultConfig(), core.DefaultConfig()
	p.Apply(&c1)
	p.Apply(&c2)
	if c1.Prefetcher == nil || c1.Prefetcher == c2.Prefetcher {
		t.Fatal("policy applications share prefetcher state")
	}
}

func TestSizedPDIPPolicies(t *testing.T) {
	// The sweep policies must reflect the paper's table sizes.
	for name, wantKB := range map[string]float64{
		"pdip11": 10.875, "pdip22": 21.75, "pdip44": 43.5, "pdip87": 87,
	} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := core.DefaultConfig()
		p.Apply(&c)
		if got := c.Prefetcher.StorageKB(); got != wantKB {
			t.Fatalf("%s storage %.3fKB, want %.3f", name, got, wantKB)
		}
	}
}

func Test2xIL1(t *testing.T) {
	p, _ := ByName("2x-il1")
	c := core.DefaultConfig()
	p.Apply(&c)
	if c.Mem.L1I.SizeBytes != 64<<10 {
		t.Fatalf("2x-il1 L1I size %d", c.Mem.L1I.SizeBytes)
	}
}

func TestEmissaryKnobs(t *testing.T) {
	p, _ := ByName("emissary")
	c := core.DefaultConfig()
	p.Apply(&c)
	if !c.Emissary || c.Mem.L2.ProtectedWays != 8 {
		t.Fatalf("emissary knobs: %+v", c.Mem.L2)
	}
	if c.EmissaryPromoteProb != 1.0/32.0 {
		t.Fatalf("promote prob %v", c.EmissaryPromoteProb)
	}
}

func TestAblationPoliciesExist(t *testing.T) {
	names := strings.Join(Names(), " ")
	for _, abl := range []string{"pdip44-insert100", "pdip44-allfec", "pdip44-nomask", "pdip44-returns", "pdip44-reserve0", "no-fdip"} {
		if !strings.Contains(names, abl) {
			t.Fatalf("ablation %q missing from registry", abl)
		}
	}
}
