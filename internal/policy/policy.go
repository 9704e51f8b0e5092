// Package policy is the registry of evaluated configurations (the paper's
// Table 3 plus the ablations DESIGN.md calls out). A policy is a named
// mutation of the baseline core configuration; fresh prefetcher instances
// are created per application so runs never share mutable state.
package policy

import (
	"fmt"
	"sort"

	"pdip/internal/core"
	"pdip/internal/eip"
	"pdip/internal/fnlmma"
	"pdip/internal/pdip"
	"pdip/internal/prefetch"
	"pdip/internal/rdip"
)

// Policy is one named configuration.
type Policy struct {
	// Name is the registry key ("pdip44", "eip46", ...).
	Name string
	// Description matches Table 3's description column.
	Description string
	// Apply mutates a baseline core configuration in place.
	Apply func(*core.Config)
}

// emissaryOn enables the EMISSARY L2 replacement policy with the paper's
// preferred knobs: 8 protected ways, 1/32 promotion probability (§6.5).
func emissaryOn(c *core.Config) {
	c.Emissary = true
	c.Mem.L2.ProtectedWays = 8
	c.EmissaryPromoteProb = 1.0 / 32.0
}

func pdipOn(c *core.Config, ways int) {
	pc := pdip.ConfigForWays(ways)
	pc.Seed = c.Seed
	c.Prefetcher = pdip.New(pc)
}

// policies is the registry, built once; idx maps each name to its place.
// Lookups hand out copies.
var (
	policies = registry()
	idx      = indexOf(policies)
)

func indexOf(ps []Policy) map[string]int {
	m := make(map[string]int, len(ps))
	for i := range ps {
		m[ps[i].Name] = i
	}
	return m
}

// registry builds the full policy table.
func registry() []Policy {
	ps := []Policy{
		{"baseline", "Golden Cove-like FDIP core (Table 1)", func(c *core.Config) {}},
		{"no-fdip", "coupled front-end: FTQ depth 1, no FDIP prefetch (§6.2 ablation)", func(c *core.Config) {
			c.FTQDepth = 1
			c.DisableFDIPPrefetch = true
		}},
		{"2x-il1", "64KB instruction cache, twice the baseline", func(c *core.Config) {
			c.Mem.L1I.SizeBytes = 64 << 10
		}},
		{"emissary", "EMISSARY priority ways at L2 (8 ways, 1/32 promote)", emissaryOn},
		{"fec-ideal", "EMISSARY L2 + marked FEC lines always at L1I latency (§3 ceiling)", func(c *core.Config) {
			emissaryOn(c)
			c.FECIdeal = true
		}},
		{"eip46", "EIP prefetcher with ≈46KB entangling table", func(c *core.Config) {
			c.Prefetcher = eip.New(eip.DefaultConfig())
		}},
		{"nextline", "sequential next-2-lines prefetcher on miss (§8 baseline)", func(c *core.Config) {
			c.Prefetcher = prefetch.NewNextLine(2)
		}},
		{"rdip", "return-address-stack directed prefetcher (RDIP, §8 baseline)", func(c *core.Config) {
			c.Prefetcher = rdip.New(rdip.DefaultConfig())
		}},
		{"fnl-mma", "footprint-next-line + multiple-miss-ahead prefetcher (§8 baseline)", func(c *core.Config) {
			c.Prefetcher = fnlmma.New(fnlmma.DefaultConfig())
		}},
		{"eip-analytical", "analytical EIP: unbounded entangling table (>200KB)", func(c *core.Config) {
			c.Prefetcher = eip.New(eip.AnalyticalConfig())
		}},
		{"eip46+emissary", "EIP(46) combined with EMISSARY", func(c *core.Config) {
			c.Prefetcher = eip.New(eip.DefaultConfig())
			emissaryOn(c)
		}},
		{"eip-analytical+emissary", "EIP-Analytical combined with EMISSARY (Fig 3)", func(c *core.Config) {
			c.Prefetcher = eip.New(eip.AnalyticalConfig())
			emissaryOn(c)
		}},
		{"pdip44-zerocost", "PDIP(44) with zero-cycle prefetch installs (§7.2 ceiling)", func(c *core.Config) {
			pdipOn(c, 8)
			c.ZeroCostPrefetch = true
		}},
		{"pdip44+emissary", "PDIP(44) combined with EMISSARY (preferred policy)", func(c *core.Config) {
			pdipOn(c, 8)
			emissaryOn(c)
		}},
		{"pdip11+emissary", "PDIP(11) combined with EMISSARY", func(c *core.Config) {
			pdipOn(c, 2)
			emissaryOn(c)
		}},

		// Ablations (§5.1–§5.3 design choices).
		{"pdip44-insert100", "PDIP(44) inserting every qualifying line (prob 1.0)", func(c *core.Config) {
			pc := pdip.ConfigForWays(8)
			pc.InsertProb = 1.0
			pc.Seed = c.Seed
			c.Prefetcher = pdip.New(pc)
		}},
		{"pdip44-insert3", "PDIP(44) inserting at prob 0.03", func(c *core.Config) {
			pc := pdip.ConfigForWays(8)
			pc.InsertProb = 0.03
			pc.Seed = c.Seed
			c.Prefetcher = pdip.New(pc)
		}},
		{"pdip44-allfec", "PDIP(44) without the high-cost/back-end-stall insert filter", func(c *core.Config) {
			pc := pdip.ConfigForWays(8)
			pc.RequireHighCost = false
			pc.Seed = c.Seed
			c.Prefetcher = pdip.New(pc)
		}},
		{"pdip44-nomask", "PDIP(44) without the 4-bit following-blocks mask", func(c *core.Config) {
			pc := pdip.ConfigForWays(8)
			pc.MaskBits = -1
			pc.Seed = c.Seed
			c.Prefetcher = pdip.New(pc)
		}},
		{"pdip44-returns", "PDIP(44) inserting return-resteer triggers too", func(c *core.Config) {
			pc := pdip.ConfigForWays(8)
			pc.IgnoreReturns = false
			pc.Seed = c.Seed
			c.Prefetcher = pdip.New(pc)
		}},
		{"pdip44-reserve0", "PDIP(44) with no PQ MSHR demand reserve", func(c *core.Config) {
			pdipOn(c, 8)
			c.PQReserveMSHRs = -1
		}},
	}
	// PDIP table-size sweep (Fig 13): 2/4/8/16 ways ≈ 11/22/44/87 KB.
	for _, w := range []int{2, 4, 8, 16} {
		ways := w
		kb := pdip.ConfigForWays(ways).StorageKB()
		ps = append(ps, Policy{
			Name:        fmt.Sprintf("pdip%d", int(kb+0.5)),
			Description: fmt.Sprintf("PDIP with %d-way (%.1fKB) table", ways, kb),
			Apply:       func(c *core.Config) { pdipOn(c, ways) },
		})
	}
	return ps
}

// All returns every policy, stable-ordered.
func All() []Policy { return append([]Policy(nil), policies...) }

// Names returns all registry keys, sorted.
func Names() []string {
	names := make([]string, len(policies))
	for i := range policies {
		names[i] = policies[i].Name
	}
	sort.Strings(names)
	return names
}

// ByName returns the named policy.
func ByName(name string) (Policy, error) {
	if i, ok := idx[name]; ok {
		return policies[i], nil
	}
	return Policy{}, fmt.Errorf("policy: unknown policy %q (known: %v)", name, Names())
}
