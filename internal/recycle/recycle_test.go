package recycle

import (
	"slices"
	"testing"
	"unsafe"
)

// idleNow reports the idle tables' count and bytes.
func idleNow() (int, uint64) {
	mu.Lock()
	defer mu.Unlock()
	return len(idle), idleBytes
}

// TestMakeReusesZeroed: a freed table comes back for the next Make of its
// shape, zeroed, and the counts say so; another length or element type
// is a different shape.
func TestMakeReusesZeroed(t *testing.T) {
	a := Make[[]uint64](1000)
	for i := range a {
		a[i] = uint64(i) + 1
	}
	Free(a)
	before := Stats()
	if b := Make[[]int64](1000); unsafe.SliceData(b) == (*int64)(unsafe.Pointer(unsafe.SliceData(a))) {
		t.Fatal("a table of another element type was reused")
	}
	if b := Make[[]uint64](999); unsafe.SliceData(b) == unsafe.SliceData(a) {
		t.Fatal("a table of another length was reused")
	}
	b := Make[[]uint64](1000)
	if unsafe.SliceData(b) != unsafe.SliceData(a) {
		t.Fatal("the idle table of the same shape was not reused")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled table holds %d at %d, want zero", v, i)
		}
	}
	after := Stats()
	if got := after.Recycled - before.Recycled; got != 8000 {
		t.Errorf("recycled %d bytes, want 8000", got)
	}
	if got := after.Fresh - before.Fresh; got != 8000+999*8 {
		t.Errorf("fresh %d bytes, want %d", got, 8000+999*8)
	}
}

// TestIdleBounded: idle tables never exceed idleCap; the oldest go first,
// and a table larger than the cap is not kept at all.
func TestIdleBounded(t *testing.T) {
	const n = 256 << 10 // 2 MiB of uint64
	var tabs [4][]uint64
	for i := range tabs {
		tabs[i] = Make[[]uint64](n + i)
		Free(tabs[i])
		if _, bytes := idleNow(); bytes > idleCap {
			t.Fatalf("%d idle bytes after %d frees, cap is %d", bytes, i+1, idleCap)
		}
	}
	if s := Make[[]uint64](n); unsafe.SliceData(s) == unsafe.SliceData(tabs[0]) {
		t.Error("the oldest idle table survived past the cap")
	}
	if s := Make[[]uint64](n + 3); unsafe.SliceData(s) != unsafe.SliceData(tabs[3]) {
		t.Error("the newest idle table was dropped")
	}
	_, before := idleNow()
	Free(make([]byte, idleCap+1))
	if _, after := idleNow(); after != before {
		t.Errorf("a table over the cap changed idle bytes from %d to %d", before, after)
	}
}

// TestOffHeapCopies: OffHeap returns an equal copy and counts its bytes;
// where it makes no mapping it returns s itself and counts nothing. An
// empty table comes back as it was.
func TestOffHeapCopies(t *testing.T) {
	type rec struct {
		A uint64
		B [3]int32
		C bool
	}
	s := make([]rec, 1000)
	for i := range s {
		s[i] = rec{uint64(i) << 40, [3]int32{int32(i), -1, 7}, i%3 == 0}
	}
	want := slices.Clone(s)
	before := Stats().OffHeap
	m := OffHeap(s)
	if !slices.Equal(m, want) {
		t.Fatal("the off-heap copy differs from its source")
	}
	moved := Stats().OffHeap - before
	if unsafe.SliceData(m) == unsafe.SliceData(s) {
		if moved != 0 {
			t.Errorf("OffHeap returned its source but counted %d bytes moved", moved)
		}
	} else if size := uint64(len(s)) * uint64(unsafe.Sizeof(rec{})); moved != size {
		t.Errorf("OffHeap counted %d bytes, want %d", moved, size)
	}
	if got := OffHeap([]uint64(nil)); got != nil {
		t.Errorf("OffHeap(nil) = %v, want nil", got)
	}
}

// TestOffHeapRejectsPointers: an element type that holds anything the
// collector follows, at any depth, panics, even for an empty table, and
// counts nothing.
func TestOffHeapRejectsPointers(t *testing.T) {
	cases := []struct {
		name string
		off  func()
	}{
		{"pointer", func() { OffHeap([]*int{new(int)}) }},
		{"string in a struct", func() { OffHeap([]struct{ N, S string }{{}}) }},
		{"slice in an array", func() { OffHeap([][2][]byte{{}}) }},
		{"func", func() { OffHeap([]func(){nil}) }},
		{"empty table of maps", func() { OffHeap([]map[int]int(nil)) }},
	}
	before := Stats().OffHeap
	for _, c := range cases {
		if !panics(c.off) {
			t.Errorf("%s: OffHeap did not panic", c.name)
		}
	}
	if after := Stats().OffHeap; after != before {
		t.Errorf("rejected tables counted %d bytes off the heap", after-before)
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}
