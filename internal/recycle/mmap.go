//go:build linux || darwin

package recycle

import "syscall"

// mapReadOnly copies b into a new private anonymous mapping and makes the
// mapping read-only; nil if either step fails. Nothing unmaps it.
func mapReadOnly(b []byte) []byte {
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	copy(m, b)
	if syscall.Mprotect(m, syscall.PROT_READ) != nil {
		// The table stays on the heap either way; a failed unmap only
		// leaves this unused region mapped.
		_ = syscall.Munmap(m)
		return nil
	}
	return m
}
