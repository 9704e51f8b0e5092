package pipeline

import "testing"

type recordStage struct {
	name string
	log  *[]string
}

func (s *recordStage) Name() string { return s.name }
func (s *recordStage) Tick(now int64) {
	*s.log = append(*s.log, s.name)
}

func TestPipelineTickOrder(t *testing.T) {
	var log []string
	p := New(
		&recordStage{"retire", &log},
		&recordStage{"decode", &log},
		&recordStage{"fetch", &log},
	)
	p.Tick(1)
	p.Tick(2)
	want := []string{"retire", "decode", "fetch", "retire", "decode", "fetch"}
	if len(log) != len(want) {
		t.Fatalf("ticked %d stage calls, want %d", len(log), len(want))
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("tick order %v, want %v", log, want)
		}
	}
	if len(p.Stages()) != 3 {
		t.Fatalf("Stages() returned %d", len(p.Stages()))
	}
}

func TestLatchFIFO(t *testing.T) {
	var l Latch[int]
	if _, ok := l.Peek(); ok {
		t.Fatal("peek on empty latch")
	}
	if _, ok := l.Pop(); ok {
		t.Fatal("pop on empty latch")
	}
	for i := 1; i <= 4; i++ {
		l.Push(i)
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if v, ok := l.Peek(); !ok || v != 1 {
		t.Fatalf("Peek = %d,%v", v, ok)
	}
	for want := 1; want <= 4; want++ {
		v, ok := l.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d", v, ok, want)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len after drain = %d", l.Len())
	}
}

func TestLatchStorageRecycledOnDrain(t *testing.T) {
	var l Latch[int]
	for i := 0; i < 8; i++ {
		l.Push(i)
	}
	for l.Len() > 0 {
		l.Pop()
	}
	// After a full drain the head cursor must reset so pushes reuse the
	// backing array from index 0.
	l.Push(42)
	if v, ok := l.Peek(); !ok || v != 42 {
		t.Fatalf("Peek after recycle = %d,%v", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after recycle = %d", l.Len())
	}
}

// TestLatchKeepsItsDepth: a latch Grown to n and fed without ever being
// drained (the decode queue, whose consumer rarely empties it) keeps
// capacity n, allocates nothing, and stays FIFO.
func TestLatchKeepsItsDepth(t *testing.T) {
	const n = 8
	var l Latch[*int]
	l.Grow(n)
	vals := make([]int, 64)
	next, want := 0, 0
	push := func() {
		l.Push(&vals[next%len(vals)])
		next++
	}
	for l.Len() < n-1 {
		push()
	}
	if a := testing.AllocsPerRun(100, func() {
		// Take two, put two back: occupancy stays at n-1, so the head
		// walks through the array and the tail reaches its end.
		for k := 0; k < 2; k++ {
			v, ok := l.Pop()
			if !ok || v != &vals[want%len(vals)] {
				t.Fatalf("pop %d: got %p, want %p", want, v, &vals[want%len(vals)])
			}
			want++
		}
		push()
		push()
	}); a != 0 {
		t.Errorf("%v allocations per round, want 0", a)
	}
	if got := cap(l.buf); got != n {
		t.Errorf("capacity %d after %d pushes, want %d", got, next, n)
	}
	for i := 0; i < l.Len(); i++ {
		if l.At(i) != &vals[(want+i)%len(vals)] {
			t.Fatalf("At(%d) is out of order", i)
		}
	}
	// Every round ends with a slide and one push after it, so the slot
	// past the tail is one the slide vacated.
	for _, p := range l.buf[len(l.buf):cap(l.buf)] {
		if p != nil {
			t.Fatalf("a slot past the tail still holds a consumed entry")
		}
	}
}

func TestLatchFilter(t *testing.T) {
	var l Latch[int]
	for i := 0; i < 10; i++ {
		l.Push(i)
	}
	// Consume a prefix, then filter: only unconsumed entries survive.
	l.Pop()
	l.Pop()
	l.Filter(func(v int) bool { return v%2 == 0 })
	want := []int{2, 4, 6, 8}
	if l.Len() != len(want) {
		t.Fatalf("Len after filter = %d, want %d", l.Len(), len(want))
	}
	for _, w := range want {
		v, ok := l.Pop()
		if !ok || v != w {
			t.Fatalf("Pop after filter = %d,%v want %d", v, ok, w)
		}
	}
}

func TestLatchFilterAll(t *testing.T) {
	var l Latch[string]
	l.Push("a")
	l.Push("b")
	l.Filter(func(string) bool { return false })
	if l.Len() != 0 {
		t.Fatalf("Len = %d after filter-all", l.Len())
	}
	l.Push("c")
	if v, _ := l.Pop(); v != "c" {
		t.Fatalf("latch corrupted after filter-all: %q", v)
	}
}

func TestLatchReset(t *testing.T) {
	var l Latch[int]
	l.Push(1)
	l.Push(2)
	l.Pop()
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Len after reset = %d", l.Len())
	}
	l.Push(7)
	if v, _ := l.Peek(); v != 7 {
		t.Fatalf("Peek after reset = %d", v)
	}
}
