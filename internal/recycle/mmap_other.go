//go:build !linux && !darwin

package recycle

// mapReadOnly makes no mapping where syscall has no Mprotect: OffHeap
// leaves every table on the heap.
func mapReadOnly([]byte) []byte { return nil }
