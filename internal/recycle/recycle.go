// Package recycle lends the simulator's large tables (cache columns,
// predictor and prefetcher rows, the walker's loop counters) from a
// socket that has finished to the next socket the process builds.
//
// Tables are matched by shape: element type plus length. The cells of a
// grid rarely share a warm tuple back to back, but they share a machine:
// the L2, L3, L1s and TAGE/ITTAGE of every policy on the default machine
// have one shape, so a fork of any tuple finds them idle. Make hands out
// a zeroed slice, recycled or fresh, so a build on recycled tables
// behaves exactly like a build on new ones; Free takes a table back.
// Idle tables are bounded by idleCap, oldest dropped first, so a process
// never holds more than that beyond what its sockets use.
package recycle

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// idleCap bounds the bytes of idle tables: about two default-machine
// sockets' tables (1.6 MiB each, ~1.0 MiB of it the uncore), enough
// for the shapes that alternate between cells (the 8K and 2K BTBs, a
// PDIP table, two programs' loop counters) to stay idle until reused.
const idleCap = 4 << 20

// shape is what makes two tables interchangeable.
type shape struct {
	elem reflect.Type
	n    int
}

type table struct {
	shape shape
	s     any // []elem of length shape.n
	bytes uint64
}

var (
	mu        sync.Mutex
	idle      []table // oldest first
	idleBytes uint64

	recycled, fresh atomic.Uint64
)

// Make returns a zeroed slice of n elements: the most recently freed
// idle table of that shape when there is one, a new one otherwise.
func Make[S ~[]E, E any](n int) S {
	k := shape{reflect.TypeFor[E](), n}
	size := uint64(n) * uint64(k.elem.Size())
	mu.Lock()
	for i := len(idle) - 1; i >= 0; i-- {
		if idle[i].shape != k {
			continue
		}
		s := idle[i].s.([]E)
		idleBytes -= idle[i].bytes
		copy(idle[i:], idle[i+1:])
		idle[len(idle)-1] = table{}
		idle = idle[:len(idle)-1]
		mu.Unlock()
		clear(s)
		recycled.Add(size)
		return S(s)
	}
	mu.Unlock()
	fresh.Add(size)
	return make(S, n)
}

// Free hands s back for a later Make of the same shape. The caller must
// hold no other reference to s: the next socket overwrites it.
func Free[S ~[]E, E any](s S) {
	if len(s) == 0 {
		return
	}
	t := table{shape: shape{reflect.TypeFor[E](), len(s)}, s: []E(s)}
	t.bytes = uint64(len(s)) * uint64(t.shape.elem.Size())
	if t.bytes > idleCap {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	idle = append(idle, t)
	idleBytes += t.bytes
	for idleBytes > idleCap {
		idleBytes -= idle[0].bytes
		n := copy(idle, idle[1:])
		idle[n] = table{}
		idle = idle[:n]
	}
}

// Counts is the recycler's lifetime accounting, in bytes of table.
type Counts struct {
	// Recycled counts bytes Make served from idle tables.
	Recycled uint64
	// Fresh counts bytes Make allocated because no idle table fit.
	Fresh uint64
}

// Stats returns the process's counts so far.
func Stats() Counts {
	return Counts{Recycled: recycled.Load(), Fresh: fresh.Load()}
}
