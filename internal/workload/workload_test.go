package workload

import (
	"reflect"
	"runtime"
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/isa"
	"pdip/internal/recycle"
	"pdip/internal/trace"
)

func TestSixteenBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("got %d benchmarks, want the paper's 16", len(all))
	}
	want := []string{"cassandra", "tomcat", "kafka", "xalan", "finagle-http", "dotty",
		"tpcc", "ycsb", "twitter", "voter", "smallbank", "tatp", "sibench", "noop",
		"verilator", "speedometer2.0"}
	for i, p := range all {
		if p.Name != want[i] {
			t.Fatalf("benchmark %d = %q, want %q (paper order)", i, p.Name, want[i])
		}
		if p.Suite == "" || p.Description == "" {
			t.Fatalf("benchmark %q missing metadata", p.Name)
		}
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("tpcc")
	if err != nil || p.Name != "tpcc" {
		t.Fatalf("ByName: %v %v", p.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The registry is built once: a lookup copies a profile out of it
	// without allocating, and reshaping the copy leaves the registry as
	// it was.
	if n := testing.AllocsPerRun(100, func() { p, _ = ByName("kafka") }); n != 0 {
		t.Errorf("ByName allocates %v times per call, want 0", n)
	}
	want := p
	p.CFG.NumFuncs *= 2
	p.MemOpFrac = 0.5
	All()[2].DataHotFrac = 0.1
	if got, _ := ByName("kafka"); got != want {
		t.Errorf("mutating returned profiles changed the registry: %+v, want %+v", got, want)
	}
}

func TestProgramsGenerateAndExceedL1I(t *testing.T) {
	for _, p := range All() {
		prog, err := p.Program()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// The defining property of every benchmark: the footprint is far
		// larger than the 32KB L1I.
		if prog.FootprintBytes() < 4*32<<10 {
			t.Fatalf("%s footprint %dKB too small for a front-end-bound workload",
				p.Name, prog.FootprintBytes()>>10)
		}
	}
}

func TestProgramCaching(t *testing.T) {
	p, _ := ByName("ycsb")
	a, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := p.Program()
	if a != b {
		t.Fatal("program not cached")
	}
}

// TestStockProgramsLeaveTheHeap builds every registered profile's program
// and requires the collected heap to hold less than half of their tables
// afterwards: the tables live off the heap, so the collector neither
// scans them nor grows the heap by their size again before collecting.
// Only stock programs move, so the recycler's off-heap count is their
// table bytes. It stays 0 only where recycle makes no mappings (any
// GOOS but linux and darwin).
func TestStockProgramsLeaveTheHeap(t *testing.T) {
	for _, p := range All() {
		if _, err := p.Program(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	tables := recycle.Stats().OffHeap
	if tables == 0 {
		if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
			t.Fatal("no stock program's tables moved off the heap")
		}
		t.Skipf("no off-heap mappings on %s", runtime.GOOS)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("%.1f MiB live on the heap, %.1f MiB of program tables off it", float64(ms.HeapAlloc)/(1<<20), float64(tables)/(1<<20))
	if ms.HeapAlloc >= tables/2 {
		t.Errorf("%.1f MiB live on the heap with every stock program built, want under half of their %.1f MiB of tables",
			float64(ms.HeapAlloc)/(1<<20), float64(tables)/(1<<20))
	}
}

// TestProgramCacheKeysEveryParam reshapes a profile in each cfg.Params
// field in turn: every variant must get a program of its own, generated
// from its own parameters, while profiles with equal parameters (even
// under another name) share one.
func TestProgramCacheKeysEveryParam(t *testing.T) {
	small := cfg.DefaultParams()
	small.Seed = 0x7e57
	base := Profile{Name: "small", CFG: small}
	prog, err := base.Program()
	if err != nil {
		t.Fatal(err)
	}
	if twin, err := (Profile{Name: "twin", CFG: small}).Program(); err != nil || twin != prog {
		t.Fatalf("equal parameters got another program (%v)", err)
	}
	typ := reflect.TypeOf(small)
	for i := 0; i < typ.NumField(); i++ {
		p := base
		f := reflect.ValueOf(&p.CFG).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Int:
			f.SetInt(f.Int() * 2)
		case reflect.Uint64:
			f.SetUint(f.Uint() * 2)
		default:
			t.Fatalf("cfg.Params.%s: no perturbation for a %s", typ.Field(i).Name, f.Kind())
		}
		got, err := p.Program()
		if err != nil {
			t.Fatalf("%s: %v", typ.Field(i).Name, err)
		}
		if got == prog || got.Params != p.CFG {
			t.Errorf("a profile reshaped in %s got the program of other parameters", typ.Field(i).Name)
		}
	}
	// The reshaping a HardBranchFrac sweep makes.
	ycsb, err := ByName("ycsb")
	if err != nil {
		t.Fatal(err)
	}
	stock, err := ycsb.Program()
	if err != nil {
		t.Fatal(err)
	}
	ycsb.CFG.HardBranchFrac, ycsb.CFG.InstsPerBlockMean = 0.3, 12
	if reshaped, err := ycsb.Program(); err != nil || reshaped == stock {
		t.Fatalf("reshaped ycsb got the stock program (%v)", err)
	}
	// Only a bounded number of reshaped programs stays resident; the
	// registered profiles' programs stay for the life of the process.
	progMu.Lock()
	resident := len(reshaped)
	progMu.Unlock()
	if resident > maxReshaped {
		t.Errorf("%d reshaped programs resident, want at most %d", resident, maxReshaped)
	}
	ycsb, _ = ByName("ycsb")
	if again, err := ycsb.Program(); err != nil || again != stock {
		t.Errorf("the stock ycsb program was evicted (%v)", err)
	}
}

func TestVerilatorHasLongBlocks(t *testing.T) {
	v, _ := ByName("verilator")
	c, _ := ByName("cassandra")
	if v.CFG.InstsPerBlockMean <= c.CFG.InstsPerBlockMean {
		t.Fatal("verilator should have unusually long basic blocks (§7.4)")
	}
}

func TestDataHeavyTrio(t *testing.T) {
	// §7.1: dotty, tatp, smallbank pressure the L2 with data.
	base, _ := ByName("cassandra")
	for _, name := range []string{"dotty", "tatp", "smallbank"} {
		p, _ := ByName(name)
		if p.DataColdLines <= base.DataColdLines {
			t.Fatalf("%s cold data set not larger than default", name)
		}
	}
}

func TestWalksMakeProgress(t *testing.T) {
	// Every profile must sustain a non-degenerate walk: enough distinct
	// lines per window that the L1I is actually pressured.
	for _, p := range All() {
		prog, err := p.Program()
		if err != nil {
			t.Fatal(err)
		}
		w := trace.New(prog, 1234)
		lines := map[isa.Addr]struct{}{}
		for i := 0; i < 100000; i++ {
			lines[w.Next().PC.Line()] = struct{}{}
		}
		if len(lines)*isa.LineSize < 32<<10 {
			t.Fatalf("%s: walk touched only %dKB in 100K instructions (degenerate)",
				p.Name, len(lines)*isa.LineSize>>10)
		}
	}
}
