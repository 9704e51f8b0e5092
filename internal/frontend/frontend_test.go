package frontend

import (
	"testing"

	"pdip/internal/bpu"
	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/isa"
	"pdip/internal/trace"
)

// --- FTQ ---

func TestFTQBasics(t *testing.T) {
	q := NewFTQ(3)
	if q.Depth() != 3 || q.Len() != 0 || q.Full() {
		t.Fatal("bad initial state")
	}
	for i := 0; i < 3; i++ {
		q.Push(&FTQEntry{FTQEntryState: checkpoint.FTQEntryState{Start: isa.Addr(i)}})
	}
	if !q.Full() {
		t.Fatal("not full after 3 pushes")
	}
	for i := 0; i < 3; i++ {
		e := q.Pop()
		if e == nil || e.Start != isa.Addr(i) {
			t.Fatalf("pop %d: %+v", i, e)
		}
	}
	if q.Pop() != nil {
		t.Fatal("pop on empty returned an entry")
	}
}

func TestFTQOverflowPanics(t *testing.T) {
	q := NewFTQ(1)
	q.Push(&FTQEntry{})
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q.Push(&FTQEntry{})
}

func TestFTQFlushAndContains(t *testing.T) {
	q := NewFTQ(4)
	q.Push(&FTQEntry{FTQEntryState: checkpoint.FTQEntryState{Lines: []isa.Addr{0x40, 0x80}}})
	q.Push(&FTQEntry{FTQEntryState: checkpoint.FTQEntryState{Lines: []isa.Addr{0x1c0}}})
	if !q.Contains(0x80) || !q.Contains(0x1c0) || q.Contains(0x200) {
		t.Fatal("Contains wrong")
	}
	q.Flush()
	if q.Len() != 0 || q.Contains(0x80) {
		t.Fatal("flush did not empty the queue")
	}
}

func TestFTQWrapAround(t *testing.T) {
	q := NewFTQ(2)
	for i := 0; i < 10; i++ {
		q.Push(&FTQEntry{FTQEntryState: checkpoint.FTQEntryState{Start: isa.Addr(i)}})
		if e := q.Pop(); e.Start != isa.Addr(i) {
			t.Fatalf("wrap iteration %d: %v", i, e.Start)
		}
	}
}

// --- IAG ---

func testIAG(seed uint64) (*IAG, *cfg.Program) {
	p := cfg.DefaultParams()
	p.Seed = seed
	p.NumFuncs = 96
	prog := cfg.MustGenerate(p)
	b := bpu.New(bpu.DefaultConfig())
	w := trace.New(prog, seed)
	return NewIAG(b, w, 16), prog
}

func TestIAGEntriesEndAtBranches(t *testing.T) {
	iag, _ := testIAG(1)
	for i := 0; i < 2000; i++ {
		e := iag.NextEntry()
		if len(e.Insts) == 0 {
			t.Fatal("empty entry")
		}
		for j, in := range e.Insts[:len(e.Insts)-1] {
			if in.Kind.IsBranch() {
				t.Fatalf("entry %d has a branch at non-terminal position %d", i, j)
			}
		}
		last := e.Insts[len(e.Insts)-1]
		if e.HasBranch != last.Kind.IsBranch() {
			t.Fatalf("HasBranch=%v but terminator kind=%v", e.HasBranch, last.Kind)
		}
		if len(e.Insts) > 16 {
			t.Fatalf("entry exceeds cap: %d instructions", len(e.Insts))
		}
	}
}

func TestIAGLinesCoverInstructions(t *testing.T) {
	iag, _ := testIAG(2)
	for i := 0; i < 2000; i++ {
		e := iag.NextEntry()
		lineSet := map[isa.Addr]struct{}{}
		for _, l := range e.Lines {
			lineSet[l] = struct{}{}
		}
		for _, in := range e.Insts {
			if _, ok := lineSet[in.PC.Line()]; !ok {
				t.Fatalf("instruction line %v missing from entry lines %v", in.PC.Line(), e.Lines)
			}
			end := in.PC + isa.Addr(in.Size) - 1
			if _, ok := lineSet[end.Line()]; !ok {
				t.Fatalf("spill line %v missing from entry lines", end.Line())
			}
		}
	}
}

func TestIAGMispredictForksWrongPath(t *testing.T) {
	iag, _ := testIAG(3)
	found := false
	for i := 0; i < 20000 && !found; i++ {
		e := iag.NextEntry()
		if e.Mispredict {
			found = true
			if e.WrongPath {
				t.Fatal("the mispredicted entry itself is marked wrong-path")
			}
			if e.CorrectTarget == 0 {
				t.Fatal("mispredict without a correct target")
			}
			if !iag.OnWrongPath() {
				t.Fatal("IAG did not enter wrong-path mode")
			}
			// Subsequent entries are wrong-path until resteer.
			n := iag.NextEntry()
			if !n.WrongPath {
				t.Fatal("entry after mispredict not wrong-path")
			}
			if n.Mispredict {
				t.Fatal("nested mispredict tracked on the wrong path")
			}
			iag.Resteer()
			if iag.OnWrongPath() {
				t.Fatal("Resteer did not clear wrong-path mode")
			}
			// The next correct-path entry must start at the resteer target.
			c := iag.NextEntry()
			if c.WrongPath {
				t.Fatal("entry after resteer still wrong-path")
			}
			if c.Start != e.CorrectTarget {
				t.Fatalf("resumed at %v, want %v", c.Start, e.CorrectTarget)
			}
		}
	}
	if !found {
		t.Fatal("no mispredict in 20000 entries")
	}
}

func TestIAGPathContinuity(t *testing.T) {
	// On the correct path (resteering immediately after each mispredict),
	// consecutive entries must be contiguous in control flow.
	iag, _ := testIAG(4)
	var prev *FTQEntry
	for i := 0; i < 5000; i++ {
		e := iag.NextEntry()
		if prev != nil {
			last := prev.Insts[len(prev.Insts)-1]
			want := last.NextPC()
			if prev.Mispredict {
				want = prev.CorrectTarget
			}
			if e.Start != want {
				t.Fatalf("entry %d starts at %v, want %v", i, e.Start, want)
			}
		}
		prev = e
		if e.Mispredict {
			iag.Resteer()
		}
	}
}

func TestIAGBTBMissClassification(t *testing.T) {
	iag, _ := testIAG(5)
	sawBTB, sawEarly := false, false
	for i := 0; i < 30000 && !(sawBTB && sawEarly); i++ {
		e := iag.NextEntry()
		if e.Mispredict {
			if e.Cause == ResteerBTBMiss {
				sawBTB = true
				if e.ResolveAtDecode {
					sawEarly = true
				}
			}
			iag.Resteer()
		}
	}
	if !sawBTB {
		t.Fatal("no BTB-miss resteers observed")
	}
	if !sawEarly {
		t.Fatal("no decode-resolved (early correction) resteers observed")
	}
}

func TestResteerCauseStrings(t *testing.T) {
	for _, c := range []ResteerCause{ResteerNone, ResteerMispredict, ResteerBTBMiss, ResteerReturn} {
		if c.String() == "" {
			t.Fatalf("cause %d has empty name", c)
		}
	}
}
