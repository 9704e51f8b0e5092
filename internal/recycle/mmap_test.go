//go:build linux || darwin

package recycle

import (
	"runtime/debug"
	"testing"
	"unsafe"
)

// TestOffHeapIsReadOnly: where mappings exist, OffHeap's copy is its own
// memory, and a write into it faults and leaves the value as it was.
func TestOffHeapIsReadOnly(t *testing.T) {
	s := []uint64{1, 2, 3}
	m := OffHeap(s)
	if unsafe.SliceData(m) == unsafe.SliceData(s) {
		t.Fatal("OffHeap made no mapping")
	}
	s[1] = 5
	if m[1] != 2 {
		t.Fatalf("the copy reads %d after its source changed, want 2", m[1])
	}
	if !writeFaults(&m[1], 99) {
		t.Fatal("a write into the off-heap copy did not fault")
	}
	if m[1] != 2 {
		t.Fatalf("the copy reads %d after a faulted write, want 2", m[1])
	}
}

// writeFaults stores v at p and reports whether the store faulted.
func writeFaults(p *uint64, v uint64) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() { faulted = recover() != nil }()
	*p = v
	return false
}
