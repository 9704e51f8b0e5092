package cfg

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"pdip/internal/isa"
	"pdip/internal/rng"
)

func smallParams(seed uint64) Params {
	p := DefaultParams()
	p.Seed = seed
	p.NumFuncs = 128
	return p
}

func TestGenerateDeterminism(t *testing.T) {
	a := MustGenerate(smallParams(11))
	b := MustGenerate(smallParams(11))
	if len(a.Blocks) != len(b.Blocks) || len(a.Funcs) != len(b.Funcs) {
		t.Fatal("same seed produced different program shapes")
	}
	for i := range a.Blocks {
		if a.Blocks[i].Addr != b.Blocks[i].Addr || a.Blocks[i].Term.Kind != b.Blocks[i].Term.Kind {
			t.Fatalf("block %d differs between identical generations", i)
		}
	}
}

// TestGenerateValidation feeds Generate empty shapes and parameters the
// program layout cannot hold. Each must fail instead of yielding
// overlapping blocks (a negative alignment), unaligned functions (an
// alignment the address mask cannot express), truncated block fields, or
// loops whose trip count wraps the walker's counter and never exit.
func TestGenerateValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Params)
		ok   bool
	}{
		{"NumFuncs 0", func(p *Params) { p.NumFuncs = 0 }, false},
		{"BlocksPerFuncMean 0", func(p *Params) { p.BlocksPerFuncMean = 0 }, false},
		{"FuncAlign -64", func(p *Params) { p.FuncAlign = -64 }, false},
		{"FuncAlign 48", func(p *Params) { p.FuncAlign = 48 }, false},
		{"FuncAlign 0 (default)", func(p *Params) { p.FuncAlign = 0 }, true},
		{"FuncAlign 1", func(p *Params) { p.FuncAlign = 1 }, true},
		{"FuncAlign 4096", func(p *Params) { p.FuncAlign = 4096 }, true},
		{"InstsPerBlockMean past a block's byte size", func(p *Params) { p.InstsPerBlockMean = 2000 }, false},
		{"InstsPerBlockMean 1e300", func(p *Params) { p.InstsPerBlockMean = 1e300 }, false},
		{"InstsPerBlockMean 22 (verilator)", func(p *Params) { p.InstsPerBlockMean = 22 }, true},
		{"LoopTripMean past a loop's trip count", func(p *Params) { p.LoopTripMean = 20000 }, false},
		{"LoopTripMean 5 (workloads)", func(p *Params) { p.LoopTripMean = 5 }, true},
		{"IndirectTargets 256", func(p *Params) { p.IndirectTargets = 256 }, false},
		{"IndirectTargets 255", func(p *Params) { p.IndirectTargets = 255 }, true},
	} {
		p := smallParams(14)
		tc.set(&p)
		prog, err := Generate(p)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Generate error = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		for i := 1; i < len(prog.Blocks); i++ {
			if prog.Blocks[i].Addr < prog.Blocks[i-1].End() {
				t.Fatalf("%s: block %d overlaps block %d", tc.name, i, i-1)
			}
		}
		for _, fn := range prog.Funcs[1:] {
			if a := prog.Blocks[fn.FirstBlock].Addr; a%isa.Addr(prog.Params.FuncAlign) != 0 {
				t.Fatalf("%s: function %d starts at %v, not %d-aligned", tc.name, fn.ID, a, prog.Params.FuncAlign)
			}
		}
	}
}

// TestBlockIsFlat pins the block record's layout: no pointers (the block
// table is one allocation the garbage collector never scans) and 32
// bytes.
func TestBlockIsFlat(t *testing.T) {
	if size := unsafe.Sizeof(Block{}); size != 32 {
		t.Errorf("cfg.Block is %d bytes, want 32", size)
	}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Block{}), "cfg.Block")
}

// TestFuncOf requires FuncOf to name the function whose block range
// holds each block.
func TestFuncOf(t *testing.T) {
	prog := MustGenerate(smallParams(15))
	for _, fn := range prog.Funcs {
		for id := fn.FirstBlock; id < fn.FirstBlock+fn.NumBlocks; id++ {
			if got := prog.FuncOf(id); got != fn.ID {
				t.Fatalf("FuncOf(%d) = %d, want %d", id, got, fn.ID)
			}
		}
	}
}

// TestTakenProbTable requires the probability table to hold only the
// four values a generator can draw, and every block to read back the
// probability its kind implies: CondBias or 1-CondBias for an easy
// branch, HardBias for a hard one, 0 for loops and other terminators.
func TestTakenProbTable(t *testing.T) {
	p := smallParams(16)
	prog := MustGenerate(p)
	if len(prog.probs) > 4 {
		t.Fatalf("probability table holds %d values %v, want at most 4", len(prog.probs), prog.probs)
	}
	seen := map[float64]bool{}
	for i := range prog.Blocks {
		blk := &prog.Blocks[i]
		got := prog.TakenProb(blk)
		seen[got] = true
		switch {
		case blk.Term.Kind != isa.CondDirect || blk.Term.LoopTrip > 0:
			if got != 0 {
				t.Fatalf("block %d (%v, trip %d) has taken probability %g", i, blk.Term.Kind, blk.Term.LoopTrip, got)
			}
		case got != p.CondBias && got != 1-p.CondBias && got != p.HardBias:
			t.Fatalf("block %d has taken probability %g", i, got)
		}
	}
	if !seen[p.CondBias] || !seen[1-p.CondBias] || !seen[p.HardBias] {
		t.Fatalf("probabilities %v miss one of %g, %g, %g", seen, p.CondBias, 1-p.CondBias, p.HardBias)
	}
}

func TestDriverStructure(t *testing.T) {
	prog := MustGenerate(smallParams(2))
	if prog.Entry != 0 {
		t.Fatalf("entry = %d, want driver block 0", prog.Entry)
	}
	d := prog.Funcs[0]
	if d.NumBlocks != 2 {
		t.Fatalf("driver has %d blocks, want 2", d.NumBlocks)
	}
	if !prog.Blocks[0].Term.Dispatch || prog.Blocks[0].Term.Kind != isa.IndirectCall {
		t.Fatal("driver block 0 is not the dispatch indirect call")
	}
	if prog.Blocks[1].Term.Kind != isa.UncondDirect || prog.Blocks[1].Term.TakenBlock != 0 {
		t.Fatal("driver block 1 does not loop back to block 0")
	}
}

func TestLayerDAG(t *testing.T) {
	prog := MustGenerate(smallParams(3))
	for id, blk := range prog.Blocks {
		caller := prog.Funcs[prog.FuncOf(id)]
		switch blk.Term.Kind {
		case isa.DirectCall:
			callee := prog.Funcs[prog.FuncOf(int(blk.Term.TakenBlock))]
			if blk.Term.Dispatch {
				continue
			}
			if callee.Layer != caller.Layer+1 {
				t.Fatalf("call from layer %d to layer %d (func %d → %d)",
					caller.Layer, callee.Layer, caller.ID, callee.ID)
			}
		case isa.IndirectCall:
			if blk.Term.Dispatch {
				continue
			}
			for _, tgt := range prog.IndTargets(&blk) {
				callee := prog.Funcs[prog.FuncOf(int(tgt))]
				if callee.Layer != caller.Layer+1 {
					t.Fatalf("indirect call from layer %d to layer %d", caller.Layer, callee.Layer)
				}
			}
		}
	}
	// The deepest layer must make no calls.
	for id, blk := range prog.Blocks {
		if f := prog.FuncOf(id); prog.Funcs[f].Layer == MaxLayer &&
			(blk.Term.Kind == isa.DirectCall || blk.Term.Kind == isa.IndirectCall) && !blk.Term.Dispatch {
			t.Fatalf("layer %d function %d makes a call", MaxLayer, f)
		}
	}
}

func TestForwardOnlyJumps(t *testing.T) {
	prog := MustGenerate(smallParams(4))
	for id, blk := range prog.Blocks {
		fn := prog.Funcs[prog.FuncOf(id)]
		rel := id - fn.FirstBlock
		switch blk.Term.Kind {
		case isa.UncondDirect:
			if fn.ID == 0 {
				continue // the driver loop-back is the one allowed cycle
			}
			if int(blk.Term.TakenBlock) <= id {
				t.Fatalf("unconditional backward/self jump at block %d", id)
			}
		case isa.IndirectJump:
			for _, tgt := range prog.IndTargets(&blk) {
				if int(tgt) <= id {
					t.Fatalf("indirect backward/self jump at block %d", id)
				}
			}
		case isa.CondDirect:
			tgtRel := int(blk.Term.TakenBlock) - fn.FirstBlock
			if blk.Term.LoopTrip > 0 {
				if tgtRel >= rel {
					t.Fatalf("loop back-edge not backward at block %d", id)
				}
			} else if tgtRel <= rel {
				t.Fatalf("forward conditional targets itself or earlier at block %d", id)
			}
		}
	}
}

func TestBlocksContiguousAndSorted(t *testing.T) {
	prog := MustGenerate(smallParams(5))
	for i := 1; i < len(prog.Blocks); i++ {
		if prog.Blocks[i].Addr < prog.Blocks[i-1].End() {
			t.Fatalf("block %d overlaps block %d", i, i-1)
		}
	}
}

func TestBlockAt(t *testing.T) {
	prog := MustGenerate(smallParams(6))
	// Every instruction start address must resolve to its block.
	for bi := range prog.Blocks {
		blk := &prog.Blocks[bi]
		pc := blk.Addr
		for _, sz := range prog.InstSizes(blk) {
			if got := prog.BlockIndex(pc); got != bi {
				t.Fatalf("BlockIndex(%v) = %d, want block %d", pc, got, bi)
			}
			pc += isa.Addr(sz)
		}
	}
	if prog.BlockIndex(prog.Params.CodeBase-1) >= 0 {
		t.Fatal("BlockIndex before code base returned a block")
	}
	last := prog.Blocks[len(prog.Blocks)-1]
	if prog.BlockIndex(last.End()+1024) >= 0 {
		t.Fatal("BlockIndex past code end returned a block")
	}
}

func TestBlockAtProperty(t *testing.T) {
	prog := MustGenerate(smallParams(7))
	foot := prog.FootprintBytes()
	f := func(off uint32) bool {
		addr := prog.Params.CodeBase + isa.Addr(int(off)%foot)
		i := prog.BlockIndex(addr)
		// Padding gaps return -1; any hit must actually contain addr.
		if i < 0 {
			return true
		}
		return addr >= prog.Blocks[i].Addr && addr < prog.Blocks[i].End()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestFootprint(t *testing.T) {
	prog := MustGenerate(smallParams(8))
	if prog.FootprintBytes() <= 0 {
		t.Fatal("non-positive footprint")
	}
	wantLines := (prog.FootprintBytes() + isa.LineSize - 1) / isa.LineSize
	if prog.FootprintLines() != wantLines {
		t.Fatalf("FootprintLines = %d, want %d", prog.FootprintLines(), wantLines)
	}
	if prog.NumStaticBranches() == 0 {
		t.Fatal("no static branches generated")
	}
}

func TestSnapToLayer(t *testing.T) {
	prog := MustGenerate(smallParams(9))
	for layer := 0; layer <= MaxLayer; layer++ {
		got := prog.SnapToLayer(len(prog.Funcs)/2, layer)
		if got < 0 {
			t.Fatalf("SnapToLayer found nothing for layer %d", layer)
		}
		if prog.Funcs[got].Layer != layer {
			t.Fatalf("SnapToLayer returned layer %d, want %d", prog.Funcs[got].Layer, layer)
		}
	}
	if prog.SnapToLayer(-5, 0) < 0 || prog.SnapToLayer(1<<20, 0) < 0 {
		t.Fatal("SnapToLayer failed to clamp out-of-range indices")
	}
}

func TestPickFuncInLayer(t *testing.T) {
	prog := MustGenerate(smallParams(10))
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		layer := i % (MaxLayer + 1)
		f := prog.PickFuncInLayer(r, layer)
		if prog.Funcs[f].Layer != layer {
			t.Fatalf("PickFuncInLayer(%d) returned layer %d", layer, prog.Funcs[f].Layer)
		}
	}
}

func TestHardBranchesHaveFarTargets(t *testing.T) {
	p := smallParams(12)
	p.HardBranchFrac = 1.0 // every non-loop conditional is hard
	p.LoopFrac = 0
	prog := MustGenerate(p)
	far, total := 0, 0
	for id, blk := range prog.Blocks[2:] { // skip driver
		if blk.Term.Kind != isa.CondDirect {
			continue
		}
		total++
		if int(blk.Term.TakenBlock)-(id+2) >= 4 {
			far++
		}
	}
	if total == 0 {
		t.Fatal("no conditional branches generated")
	}
	if frac := float64(far) / float64(total); frac < 0.5 {
		t.Fatalf("only %.0f%% of hard branches have far targets", frac*100)
	}
}

func TestHotHandlers(t *testing.T) {
	p := smallParams(13)
	p.HotFuncFrac = 0.5
	prog := MustGenerate(p)
	hot := prog.HotHandlers()
	if len(hot) == 0 {
		t.Fatal("no hot handlers with HotFuncFrac=0.5")
	}
	for _, h := range hot {
		if h == 0 {
			t.Fatal("driver listed as hot handler")
		}
		if prog.Funcs[h].Layer != 0 || !prog.Funcs[h].Hot {
			t.Fatalf("hot handler %d is layer %d hot=%v", h, prog.Funcs[h].Layer, prog.Funcs[h].Hot)
		}
	}
}
