// Package backend models a deliberately simple out-of-order back-end: a
// reorder buffer whose entries complete independently (issue bandwidth and
// register dependencies are not modelled — memory latency dominates the
// workloads of interest) and retire in order, up to the retire width, once
// execution is done. This is the minimal back-end that still produces the
// signals the paper's front-end machinery needs: in-order retirement (the
// FEC conditions are checked at retire), ROB-full back-pressure (back-end
// bound slots), and back-end starvation (issue-queue-empty proxy).
package backend

import (
	"pdip/internal/checkpoint"
	"pdip/internal/frontend"
)

// Stats aggregates ROB-level accounting: allocations, in-order
// retirements, and wrong-path squashes.
type Stats = checkpoint.ROBStats

// ROB is the reorder buffer.
type ROB struct {
	entries []*frontend.Uop
	head    int
	count   int

	Stats Stats
}

// NewROB returns a ROB with the given capacity (Table 1: 512).
func NewROB(capacity int) *ROB {
	if capacity <= 0 {
		capacity = 512
	}
	return &ROB{entries: make([]*frontend.Uop, capacity)}
}

// Len returns the current occupancy.
func (r *ROB) Len() int { return r.count }

// Capacity returns the configured size.
func (r *ROB) Capacity() int { return len(r.entries) }

// Full reports whether allocation must stall.
func (r *ROB) Full() bool { return r.count == len(r.entries) }

// Empty reports an empty ROB (the back-end-starvation signal).
func (r *ROB) Empty() bool { return r.count == 0 }

// Push allocates a uop; it panics when full (decode checks Full first).
func (r *ROB) Push(u *frontend.Uop) {
	if r.Full() {
		panic("backend: ROB overflow")
	}
	r.entries[(r.head+r.count)%len(r.entries)] = u
	r.count++
	r.Stats.Pushed++
}

// Head returns the oldest uop without removing it, or nil when empty.
func (r *ROB) Head() *frontend.Uop {
	if r.count == 0 {
		return nil
	}
	return r.entries[r.head]
}

// Retire removes and returns up to width in-order uops whose execution
// completed by cycle now, appending them to out.
func (r *ROB) Retire(now int64, width int, out []*frontend.Uop) []*frontend.Uop {
	for n := 0; n < width && r.count > 0; n++ {
		u := r.entries[r.head]
		if u.DoneAt > now {
			break
		}
		out = append(out, u)
		r.entries[r.head] = nil
		r.head = (r.head + 1) % len(r.entries)
		r.count--
		r.Stats.Retired++
	}
	return out
}

// SquashWrongPath removes every wrong-path uop. Wrong-path uops are always
// a contiguous suffix (everything fetched after the mispredicted branch),
// so squash pops from the tail. Each squashed uop is handed to onSquash
// (when non-nil) before its slot is cleared, so the owner can recycle its
// storage. It returns the number squashed.
func (r *ROB) SquashWrongPath(onSquash func(*frontend.Uop)) int {
	n := 0
	for r.count > 0 {
		tail := (r.head + r.count - 1) % len(r.entries)
		if !r.entries[tail].WrongPath {
			break
		}
		if onSquash != nil {
			onSquash(r.entries[tail])
		}
		r.entries[tail] = nil
		r.count--
		n++
	}
	r.Stats.Squashed += uint64(n)
	return n
}
