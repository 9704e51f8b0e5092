package recycle

import (
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
