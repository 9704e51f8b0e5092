package trace

import (
	"slices"
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
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
			if b := prog.BlockIndex(in.PC); b >= 0 && prog.Blocks[b].Term.Dispatch {
				sawDispatch = true
				tgt := prog.BlockIndex(in.Target)
				if tgt < 0 {
					t.Fatal("dispatch target outside program")
				}
				fn := prog.Funcs[prog.FuncOf(tgt)]
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

// TestLoopTripsAreDeterministic: a loop back-edge is taken trip-1 times,
// then falls through, each time the loop is entered — the pattern TAGE
// learns. It follows the first loop branch the walk reaches, from its
// first execution on, over at least minPeriods trips through the loop.
func TestLoopTripsAreDeterministic(t *testing.T) {
	const minPeriods = 20
	prog := testProgram(11)
	w := New(prog, 12)
	var loopPC isa.Addr
	trip, seen := 0, 0
	for i := 0; i < 2_000_000 && (trip == 0 || seen < minPeriods*trip); i++ {
		in := w.Next()
		if in.Kind != isa.CondDirect {
			continue
		}
		if trip == 0 {
			blk := &prog.Blocks[prog.BlockIndex(in.PC)]
			if blk.Term.LoopTrip <= 1 {
				continue
			}
			loopPC, trip = in.PC, int(blk.Term.LoopTrip)
		} else if in.PC != loopPC {
			continue
		}
		if want := seen%trip != trip-1; in.Taken != want {
			t.Fatalf("loop branch at %v (trip %d): execution %d taken=%v, want %v", loopPC, trip, seen, in.Taken, want)
		}
		seen++
	}
	if trip == 0 {
		t.Fatal("the walk reached no loop branch in 2M instructions")
	}
	if seen < minPeriods*trip {
		t.Fatalf("loop branch at %v (trip %d) ran %d times, want at least %d", loopPC, trip, seen, minPeriods*trip)
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

// TestRestoreIntoUsedWalker restores a captured state into a walker that
// has run elsewhere, inside other loops: the restored walker must hold
// exactly the captured loop counters and replay the source's stream.
func TestRestoreIntoUsedWalker(t *testing.T) {
	prog := testProgram(13)
	src, used := New(prog, 14), New(prog, 15)
	for i := 0; i < 3000; i++ {
		src.Next()
	}
	for i := 0; i < 50_000; i++ {
		used.Next()
	}
	st := src.CaptureCheckpoint()
	stale := 0
	for id, n := range used.loopCnt {
		if n != 0 && src.loopCnt[id] == 0 {
			stale++
		}
	}
	if stale == 0 || len(st.LoopCnt) == 0 || len(st.Stack) == 0 {
		t.Fatalf("setup: %d stale counters, %d captured, stack depth %d; want all nonzero", stale, len(st.LoopCnt), len(st.Stack))
	}
	if err := used.RestoreCheckpoint(st); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(used.loopCnt, src.loopCnt) {
		t.Fatal("restored loop counters differ from the captured walker's")
	}
	for i := 0; i < 20_000; i++ {
		if a, b := src.Next(), used.Next(); a != b {
			t.Fatalf("restored walker diverged at instruction %d: %+v vs %+v", i, b, a)
		}
	}
}

// TestRestoreRejects feeds RestoreCheckpoint states no walker over the
// program can be in.
func TestRestoreRejects(t *testing.T) {
	prog := testProgram(16)
	w := New(prog, 17)
	for i := 0; i < 3000; i++ {
		w.Next()
	}
	blk := &prog.Blocks[20]
	for _, tc := range []struct {
		name string
		set  func(*checkpoint.WalkerState)
	}{
		{"block past the program", func(st *checkpoint.WalkerState) { st.CurBlock = len(prog.Blocks) }},
		{"block below lost", func(st *checkpoint.WalkerState) { st.CurBlock = -2 }},
		{"instruction past the block", func(st *checkpoint.WalkerState) { st.CurBlock, st.InstIdx = 20, blk.NumInsts() }},
		{"return address inside a block", func(st *checkpoint.WalkerState) { st.Stack = append(st.Stack, blk.Addr+1) }},
		{"return address in padding", func(st *checkpoint.WalkerState) { st.Stack = append(st.Stack, prog.Params.CodeBase-4) }},
		{"loop counter past the program", func(st *checkpoint.WalkerState) {
			st.LoopCnt = append(st.LoopCnt, checkpoint.LoopCount{Block: uint32(len(prog.Blocks)), Count: 1})
		}},
		{"loop counters on a wrong path", func(st *checkpoint.WalkerState) {
			st.WrongPath = true
			st.LoopCnt = append(st.LoopCnt, checkpoint.LoopCount{Block: 20, Count: 1})
		}},
	} {
		st := w.CaptureCheckpoint()
		tc.set(&st)
		if err := New(prog, 1).RestoreCheckpoint(st); err == nil {
			t.Errorf("%s: restore accepted", tc.name)
		}
	}
}
