// Package hot exercises the allocfree analyzer: a //lint:hotpath root, a
// two-hop reachable allocation, a cold function whose allocation is
// ignored, a blessed amortized refill, and an allocation reached only
// through a method value.
package hot

// sink keeps allocations observable to escape analysis.
var sink *int

// Step is the per-cycle hot path root.
//
//lint:hotpath
func Step(n int) {
	grow(n)
}

// grow allocates on every call: the seeded violation, two hops from the
// root.
//
//go:noinline
func grow(n int) {
	p := new(int) // want:allocfree
	*p = n
	sink = p
}

// Cold allocates too, but is not reachable from any hot-path root, so the
// analyzer stays quiet.
//
//go:noinline
func Cold(n int) *int {
	p := new(int)
	*p = n
	return p
}

// Refill is a hot-path root with a documented amortized allocation.
//
//lint:hotpath
//go:noinline
func Refill() {
	//lint:ignore allocfree corpus pool refill, amortized across the free list
	sink = new(int)
}

// Queue hands one of its methods to a helper as a method value.
type Queue struct{ n int }

// Drain is a hot-path root that passes the method value q.note to apply,
// which calls it: note is reached through the value.
//
//lint:hotpath
func (q *Queue) Drain() {
	apply(q.note)
}

// apply calls fn.
//
//go:noinline
func apply(fn func(int)) { fn(1) }

// note allocates, and only the method value leads to it.
//
//go:noinline
func (q *Queue) note(n int) {
	p := new(int) // want:allocfree
	*p = n + q.n
	sink = p
}
