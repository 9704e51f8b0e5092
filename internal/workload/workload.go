// Package workload defines the 16 large-code-footprint benchmark profiles
// of the paper's Table 2 as synthetic stand-ins.
//
// Each profile is a cfg.Params (code shape: footprint, block sizes, branch
// mix, call structure, dispatch mix) plus a data-side model (memory-op
// rate, working-set geometry). The parameters are calibrated so the
// baseline FDIP machine reproduces the *shape* of the paper's Figure 9
// miss pressure (who is I-cache-bound, who is data-heavy, who has BTB
// pressure), not the exact numbers — the originals are multi-threaded
// JVM/SQL applications on full Linux systems.
//
// Calibration levers, for anyone adding profiles (hard-won — see
// EXPERIMENTS.md for the calibration narrative):
//   - NumFuncs × BlocksPerFuncMean sets the active code footprint →
//     L1I MPKI and (via taken-branch sites) BTB pressure.
//   - HotFuncFrac + DispatchHotFrac set the request-popularity skew: hot
//     handlers revisit fast enough for prefetcher tables to learn.
//   - HardBranchFrac/HardBias concentrate mispredicts on a small static
//     site set (recurring resteer triggers).
//   - InstsPerBlockMean sets basic-block length (verilator's BOLT-ed
//     binary has unusually long blocks, §7.4).
//   - MemOpFrac + Data* set the L2 data contention EMISSARY competes with
//     (dotty, tatp, smallbank in §7.1).
package workload

import (
	"fmt"
	"sort"
	"sync"

	"pdip/internal/cfg"
)

// Profile is one benchmark stand-in.
type Profile struct {
	// Name is the paper's benchmark name (Table 2).
	Name string
	// Suite is the originating benchmark suite.
	Suite string
	// Description summarises what behaviour the profile models.
	Description string

	// CFG shapes the synthetic program.
	CFG cfg.Params

	// MemOpFrac is the fraction of non-branch instructions accessing data.
	MemOpFrac float64
	// DataHotLines/DataColdLines/DataHotFrac shape the data stream.
	DataHotLines, DataColdLines int
	DataHotFrac                 float64
}

// base returns the shared parameter skeleton the per-benchmark profiles
// perturb: a server-shaped program with a dispatch driver, zipf-like
// request popularity, layered (DAG) call graph, and a small set of hard
// data-dependent branches guarding cold slow paths.
func base(seed uint64) cfg.Params {
	p := cfg.DefaultParams()
	p.Seed = seed
	p.BlocksPerFuncMean = 20
	p.InstsPerBlockMean = 6
	p.CondFrac = 0.42
	p.JumpFrac = 0.08
	p.CallFrac = 0.08
	p.IndJumpFrac = 0.03
	p.IndCallFrac = 0.03
	p.RetFrac = 0.08
	p.FallFrac = 0.28
	p.LoopFrac = 0.12
	p.LoopTripMean = 5
	p.CondBias = 0.98
	p.HardBranchFrac = 0.08
	p.HardBias = 0.70
	p.IndirectTargets = 4
	p.IndirectBias = 0.85
	p.HotFuncFrac = 0.25
	p.HotCallWeight = 3
	p.CallLocality = 0.75
	p.CallNeighborhood = 60
	// Uniform dispatch over the whole handler population: the active set
	// is the full footprint, cycled continuously (stable, L2/L3-warm).
	p.DispatchNoise = 1 << 20
	p.DispatchJump = 0
	p.DispatchDrift = 0
	p.DispatchHotFrac = 0.85
	return p
}

// profiles is the registry, built once; idx maps each name to its place.
// Lookups hand out copies, so a caller may reshape what it gets.
var (
	profiles = build()
	idx      = indexOf(profiles)
)

// All returns the 16 profiles in the paper's presentation order.
func All() []Profile { return append([]Profile(nil), profiles...) }

// build constructs the 16 profiles.
func build() []Profile {
	mk := func(name, suite, desc string, seed uint64, funcs int,
		mut func(*cfg.Params)) Profile {
		p := base(seed)
		p.NumFuncs = funcs
		if mut != nil {
			mut(&p)
		}
		return Profile{
			Name: name, Suite: suite, Description: desc, CFG: p,
			MemOpFrac:    0.30,
			DataHotLines: 1 << 9, DataColdLines: 1 << 13, DataHotFrac: 0.90,
		}
	}
	list := []Profile{
		mk("cassandra", "DaCapo", "distributed store: huge JVM code footprint, deep request paths", 0xca55, 6000, nil),
		mk("tomcat", "DaCapo", "servlet container: large footprint, request-dispatch indirection", 0x70ca, 5000, func(p *cfg.Params) {
			p.IndCallFrac = 0.05
			p.IndirectTargets = 6
		}),
		mk("kafka", "DaCapo", "log broker: moderate code pressure, hot I/O loops", 0x4afca, 1800, func(p *cfg.Params) {
			p.HotFuncFrac = 0.30
			p.DispatchHotFrac = 0.92
			p.LoopFrac = 0.18
		}),
		mk("xalan", "DaCapo", "XSLT transformer: recursive tree walking, loopy kernels", 0xa1a, 3800, func(p *cfg.Params) {
			p.CallFrac = 0.10
			p.LoopFrac = 0.20
		}),
		mk("finagle-http", "Renaissance", "RPC server: futures/callback indirection", 0xf1a9, 4200, func(p *cfg.Params) {
			p.IndCallFrac = 0.06
			p.IndirectTargets = 6
		}),
		mk("dotty", "Renaissance", "Scala compiler: big footprint and heavy data-side pressure", 0xd077, 5200, func(p *cfg.Params) {
			p.CondBias = 0.97
		}),
		mk("tpcc", "OLTPBench", "OLTP: SQL executor dispatch over PostgreSQL", 0x79cc, 4400, func(p *cfg.Params) {
			p.IndJumpFrac = 0.05
			p.IndirectTargets = 8
		}),
		mk("ycsb", "OLTPBench", "key-value OLTP mix", 0x5c5b, 3600, nil),
		mk("twitter", "OLTPBench", "social-graph OLTP", 0x7177, 4000, func(p *cfg.Params) {
			p.IndJumpFrac = 0.04
			p.IndirectTargets = 6
		}),
		mk("voter", "OLTPBench", "high-rate small transactions", 0x0073, 3200, func(p *cfg.Params) {
			p.CondBias = 0.985
		}),
		mk("smallbank", "OLTPBench", "short transactions, data-heavy L2", 0x5a11, 3000, nil),
		mk("tatp", "OLTPBench", "telecom OLTP, data-heavy L2", 0x7a79, 2800, nil),
		mk("sibench", "OLTPBench", "snapshot-isolation microbench", 0x51b3, 2400, nil),
		mk("noop", "OLTPBench", "protocol/parse path only", 0x0f, 2100, func(p *cfg.Params) {
			p.CondBias = 0.985
		}),
		mk("verilator", "Chipyard", "BOLT-optimized RTL simulator: very long basic blocks, extreme footprint", 0x0e41, 3400, func(p *cfg.Params) {
			p.InstsPerBlockMean = 22
			p.BlocksPerFuncMean = 14
			p.CondBias = 0.99
			p.HardBranchFrac = 0.05
			p.LoopFrac = 0.10
			p.CallFrac = 0.05
			p.FallFrac = 0.34
			p.HotFuncFrac = 0.30
			p.DispatchHotFrac = 0.75
		}),
		mk("speedometer2.0", "BrowserBench", "JS framework suite: modest I-pressure", 0x59d0, 1400, func(p *cfg.Params) {
			p.HotFuncFrac = 0.30
			p.DispatchHotFrac = 0.92
		}),
	}

	// Data-side perturbations (§7.1: dotty/tatp/smallbank show L2 data
	// contention with EMISSARY; verilator has very low L2 data pressure).
	idx := indexOf(list)
	for _, name := range []string{"dotty", "tatp", "smallbank"} {
		p := &list[idx[name]]
		p.MemOpFrac = 0.34
		p.DataColdLines = 1 << 16 // 4MB cold set: real L2/L3 data pressure
		p.DataHotFrac = 0.75
	}
	v := &list[idx["verilator"]]
	v.MemOpFrac = 0.22
	v.DataColdLines = 1 << 11
	v.DataHotFrac = 0.97
	s := &list[idx["speedometer2.0"]]
	s.DataHotFrac = 0.95
	s.DataColdLines = 1 << 12
	k := &list[idx["kafka"]]
	k.DataHotFrac = 0.93
	return list
}

func indexOf(list []Profile) map[string]int {
	m := make(map[string]int, len(list))
	for i := range list {
		m[list[i].Name] = i
	}
	return m
}

// Names returns all profile names in presentation order.
func Names() []string {
	names := make([]string, len(profiles))
	for i := range profiles {
		names[i] = profiles[i].Name
	}
	return names
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	if i, ok := idx[name]; ok {
		return profiles[i], nil
	}
	known := Names()
	sort.Strings(known)
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, known)
}

// maxReshaped bounds the programs kept for parameters no registered
// profile has: a sweep through a long-lived process reshapes one profile
// many times (~2.8 MiB per stock-size program), and its specs use each
// shape together, so a few suffice.
const maxReshaped = 4

// reshapedProg is one cached program of unregistered parameters.
type reshapedProg struct {
	params cfg.Params
	prog   *cfg.Program
}

var (
	progMu sync.Mutex
	// stockProgs holds the registered profiles' programs for the process
	// lifetime: a key with a nil program is registered but not yet built.
	stockProgs = stockKeys()
	// reshaped holds the programs of other parameters, least recently
	// used first, at most maxReshaped of them.
	reshaped []reshapedProg
)

func stockKeys() map[cfg.Params]*cfg.Program {
	m := make(map[cfg.Params]*cfg.Program, len(profiles))
	for _, p := range profiles {
		m[p.CFG] = nil
	}
	return m
}

// Program generates (and caches) the profile's synthetic program. Programs
// are deterministic in their parameters, and read-only once built, so the
// cache is keyed on the whole cfg.Params and shared across runs and
// profiles: a profile reshaped in any parameter gets its own program.
// The registered profiles' programs stay for the life of the process;
// a reshaped one may be evicted and later generated again.
func (p Profile) Program() (*cfg.Program, error) {
	progMu.Lock()
	defer progMu.Unlock()
	prog, registered := stockProgs[p.CFG]
	if prog != nil {
		return prog, nil
	}
	for i, e := range reshaped {
		if e.params == p.CFG {
			copy(reshaped[i:], reshaped[i+1:])
			reshaped[len(reshaped)-1] = e
			return e.prog, nil
		}
	}
	prog, err := cfg.Generate(p.CFG)
	if err != nil {
		return nil, err
	}
	if registered {
		stockProgs[p.CFG] = prog
		return prog, nil
	}
	if len(reshaped) == maxReshaped {
		n := copy(reshaped, reshaped[1:])
		reshaped[n] = reshapedProg{}
		reshaped = reshaped[:n]
	}
	reshaped = append(reshaped, reshapedProg{p.CFG, prog})
	return prog, nil
}
