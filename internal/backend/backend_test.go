package backend

import (
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/frontend"
)

func uop(seq uint64, done int64, wrong bool) *frontend.Uop {
	return &frontend.Uop{UopState: checkpoint.UopState{Seq: seq, DoneAt: done, WrongPath: wrong}}
}

func TestROBInOrderRetire(t *testing.T) {
	r := NewROB(8)
	r.Push(uop(1, 10, false))
	r.Push(uop(2, 5, false)) // completes earlier but must retire second
	out := r.Retire(7, 4, nil)
	if len(out) != 0 {
		t.Fatalf("retired %d before head completed", len(out))
	}
	out = r.Retire(10, 4, nil)
	if len(out) != 2 || out[0].Seq != 1 || out[1].Seq != 2 {
		t.Fatalf("retire order wrong: %v", out)
	}
}

func TestROBRetireWidth(t *testing.T) {
	r := NewROB(16)
	for i := 1; i <= 10; i++ {
		r.Push(uop(uint64(i), 0, false))
	}
	out := r.Retire(5, 4, nil)
	if len(out) != 4 {
		t.Fatalf("retired %d, want width 4", len(out))
	}
	if r.Len() != 6 {
		t.Fatalf("occupancy %d", r.Len())
	}
}

func TestROBFullAndPanic(t *testing.T) {
	r := NewROB(2)
	r.Push(uop(1, 0, false))
	r.Push(uop(2, 0, false))
	if !r.Full() {
		t.Fatal("not full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	r.Push(uop(3, 0, false))
}

func TestSquashWrongPathSuffix(t *testing.T) {
	r := NewROB(8)
	r.Push(uop(1, 0, false))
	r.Push(uop(2, 0, false))
	r.Push(uop(3, 0, true))
	r.Push(uop(4, 0, true))
	if n := r.SquashWrongPath(nil); n != 2 {
		t.Fatalf("squashed %d, want 2", n)
	}
	if r.Len() != 2 {
		t.Fatalf("occupancy %d after squash", r.Len())
	}
	out := r.Retire(100, 8, nil)
	for _, u := range out {
		if u.WrongPath {
			t.Fatal("wrong-path uop retired")
		}
	}
}

func TestSquashEmptyAndAllWrong(t *testing.T) {
	r := NewROB(4)
	if r.SquashWrongPath(nil) != 0 {
		t.Fatal("squash on empty ROB")
	}
	r.Push(uop(1, 0, true))
	r.Push(uop(2, 0, true))
	if r.SquashWrongPath(nil) != 2 || !r.Empty() {
		t.Fatal("all-wrong squash failed")
	}
}

func TestHead(t *testing.T) {
	r := NewROB(4)
	if r.Head() != nil {
		t.Fatal("head of empty ROB")
	}
	r.Push(uop(7, 0, false))
	if r.Head().Seq != 7 {
		t.Fatal("wrong head")
	}
}

func TestROBWrapAround(t *testing.T) {
	r := NewROB(3)
	seq := uint64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 3; i++ {
			seq++
			r.Push(uop(seq, 0, false))
		}
		out := r.Retire(1, 3, nil)
		if len(out) != 3 {
			t.Fatalf("round %d retired %d", round, len(out))
		}
		for i := 1; i < len(out); i++ {
			if out[i].Seq != out[i-1].Seq+1 {
				t.Fatal("retire order broken across wrap")
			}
		}
	}
}
