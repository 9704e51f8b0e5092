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
//
// A table that lives as long as the process (a registered benchmark's
// program) is not lent at all: OffHeap copies it out of the collected
// heap into read-only memory, so the garbage collector neither scans it
// nor lets the heap grow by its size again before collecting.
package recycle

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
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

	recycled, fresh, offHeap atomic.Uint64
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
	// OffHeap counts bytes OffHeap copied out of the collected heap.
	OffHeap uint64
}

// Stats returns the process's counts so far.
func Stats() Counts {
	return Counts{Recycled: recycled.Load(), Fresh: fresh.Load(), OffHeap: offHeap.Load()}
}

// OffHeap returns a copy of s in read-only memory outside the collected
// heap, for a table that lives as long as the process: the collector
// never scans it or counts it toward its heap goal, and a write into it
// faults. The copy is never freed, so only a table the process keeps to
// its end belongs there. E must hold no pointers, since the collector
// never looks inside the copy; OffHeap panics otherwise. An empty s
// comes back unchanged, and so does any s where the platform has no
// read-only anonymous mappings or the mapping fails: only the memory
// saving is lost.
func OffHeap[S ~[]E, E any](s S) S {
	elem := reflect.TypeFor[E]()
	if !pointerFree(elem) {
		panic(fmt.Sprintf("recycle: OffHeap of %v, which holds pointers", elem))
	}
	if len(s) == 0 {
		return s
	}
	n := len(s) * int(elem.Size())
	m := mapReadOnly(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), n))
	if m == nil {
		return s
	}
	offHeap.Add(uint64(n))
	return S(unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(m))), len(s)))
}

// pointerFree reports whether values of t hold nothing the collector has
// to follow: no pointer, string, slice, map, interface, channel or func
// at any depth.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		return false
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}
