package trace

import (
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/isa"
)

func testProgram(seed uint64) *cfg.Program {
	p := cfg.DefaultParams()
	p.Seed = seed
	p.NumFuncs = 128
	return cfg.MustGenerate(p)
}

func TestWalkerDeterminism(t *testing.T) {
	prog := testProgram(1)
	a, b := New(prog, 9), New(prog, 9)
	for i := 0; i < 5000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("walkers diverged at instruction %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestWalkerProgress(t *testing.T) {
	// The walk must keep visiting distinct lines — no seed may trap it in
	// a tiny loop forever (a historical failure mode of random CFGs).
	prog := testProgram(2)
	for seed := uint64(0); seed < 8; seed++ {
		w := New(prog, seed)
		lines := map[isa.Addr]struct{}{}
		for i := 0; i < 50000; i++ {
			lines[w.Next().PC.Line()] = struct{}{}
		}
		if len(lines) < 50 {
			t.Fatalf("seed %d: walk visited only %d distinct lines in 50K instructions", seed, len(lines))
		}
	}
}

func TestWalkerPathConsistency(t *testing.T) {
	// Each instruction's NextPC must equal the next instruction's PC.
	prog := testProgram(3)
	w := New(prog, 4)
	prev := w.Next()
	for i := 0; i < 20000; i++ {
		cur := w.Next()
		if prev.NextPC() != cur.PC {
			t.Fatalf("discontinuity at %d: %v(next %v) then %v", i, prev.PC, prev.NextPC(), cur.PC)
		}
		prev = cur
	}
}

func TestWalkerDepthBounded(t *testing.T) {
	prog := testProgram(4)
	w := New(prog, 5)
	for i := 0; i < 50000; i++ {
		w.Next()
		if w.Depth() > maxCallDepth {
			t.Fatalf("call depth %d exceeds cap %d", w.Depth(), maxCallDepth)
		}
	}
}

func TestCallsAreBalancedByLayers(t *testing.T) {
	// With the layered DAG, depth must stay small (≤ layers + margin for
	// dispatch frames), far below the cap.
	prog := testProgram(5)
	w := New(prog, 6)
	maxDepth := 0
	for i := 0; i < 50000; i++ {
		w.Next()
		if d := w.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth > cfg.MaxLayer+2 {
		t.Fatalf("max depth %d exceeds layer bound %d", maxDepth, cfg.MaxLayer+2)
	}
}

func TestForkDoesNotDisturbParent(t *testing.T) {
	prog := testProgram(6)
	w := New(prog, 7)
	ref := New(prog, 7)
	for i := 0; i < 1000; i++ {
		w.Next()
		ref.Next()
	}
	f := w.Fork(prog.Blocks[10].Addr)
	for i := 0; i < 500; i++ {
		f.Next()
	}
	for i := 0; i < 1000; i++ {
		if w.Next() != ref.Next() {
			t.Fatalf("fork disturbed the parent at instruction %d", i)
		}
	}
}

func TestForkCarriesStack(t *testing.T) {
	prog := testProgram(7)
	w := New(prog, 8)
	for i := 0; i < 2000 && w.Depth() == 0; i++ {
		w.Next()
	}
	if w.Depth() == 0 {
		t.Skip("walk never entered a call in 2000 instructions")
	}
	f := w.Fork(prog.Blocks[3].Addr)
	if f.Depth() != w.Depth() {
		t.Fatalf("fork depth %d != parent depth %d", f.Depth(), w.Depth())
	}
}

func TestForkLostMode(t *testing.T) {
	prog := testProgram(8)
	w := New(prog, 9)
	// Fork at an address far outside the program: the walker must produce
	// a linear stream of plain instructions, not crash.
	f := w.Fork(0x10_0000_0000)
	prev := f.Next()
	for i := 0; i < 100; i++ {
		cur := f.Next()
		if cur.Kind != isa.NotBranch && prev.Kind != isa.NotBranch {
			break // stumbled back into real code, fine
		}
		prev = cur
	}
}

func TestForkMidInstruction(t *testing.T) {
	prog := testProgram(9)
	blk := &prog.Blocks[20]
	if blk.NumInsts() < 2 {
		t.Skip("block too small")
	}
	// Target one byte into the second instruction: the walker must snap
	// to the containing instruction boundary.
	first := isa.Addr(prog.InstSizes(blk)[0])
	target := blk.Addr + first + 1
	f := New(prog, 1).Fork(target)
	in := f.Next()
	if in.PC != blk.Addr+first {
		t.Fatalf("mid-instruction fork produced PC %v", in.PC)
	}
}

func TestDispatchEntersHandlers(t *testing.T) {
	prog := testProgram(10)
	w := New(prog, 11)
	sawDispatch := false
	for i := 0; i < 50000; i++ {
		in := w.Next()
		if in.Kind == isa.IndirectCall {
			blk := prog.BlockAt(in.PC)
			if blk != nil && blk.Term.Dispatch {
				sawDispatch = true
				tgt := prog.BlockAt(in.Target)
				if tgt == nil {
					t.Fatal("dispatch target outside program")
				}
				fn := prog.Funcs[tgt.Func]
				if fn.Layer != 0 || fn.ID == 0 {
					t.Fatalf("dispatch went to func %d (layer %d)", fn.ID, fn.Layer)
				}
			}
		}
	}
	if !sawDispatch {
		t.Fatal("no dispatch executed in 50K instructions")
	}
}

func TestLoopTripsAreDeterministic(t *testing.T) {
	// A loop back-edge must be taken trip-1 times then fall through, each
	// time the loop is entered — the pattern TAGE learns.
	prog := testProgram(11)
	var loopBlock *cfg.Block
	for i := range prog.Blocks {
		if prog.Blocks[i].Term.LoopTrip > 1 {
			loopBlock = &prog.Blocks[i]
			break
		}
	}
	if loopBlock == nil {
		t.Skip("no loop in program")
	}
	w := New(prog, 12)
	taken, seen := 0, 0
	for i := 0; i < 2000000 && seen < 3*int(loopBlock.Term.LoopTrip); i++ {
		in := w.Next()
		if in.PC == prog.LastPC(loopBlock) && in.Kind == isa.CondDirect {
			seen++
			if in.Taken {
				taken++
			}
		}
	}
	if seen == 0 {
		t.Skip("walk never reached the loop")
	}
	wantTakenFrac := float64(loopBlock.Term.LoopTrip-1) / float64(loopBlock.Term.LoopTrip)
	gotFrac := float64(taken) / float64(seen)
	if gotFrac < wantTakenFrac-0.35 || gotFrac > wantTakenFrac+0.35 {
		t.Fatalf("loop taken fraction %.2f far from expected %.2f (%d/%d)", gotFrac, wantTakenFrac, taken, seen)
	}
}

func TestCount(t *testing.T) {
	prog := testProgram(12)
	w := New(prog, 13)
	for i := 0; i < 123; i++ {
		w.Next()
	}
	if w.Count() != 123 {
		t.Fatalf("Count = %d, want 123", w.Count())
	}
}
