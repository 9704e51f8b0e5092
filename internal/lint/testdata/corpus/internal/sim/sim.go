// Package sim is the corpus simulator-state package for the
// checkpointcoverage analyzer: a root struct with covered, unmanifested,
// uncaptured and unrestored fields, a table kept directly in a checkpoint
// type, plus a struct the walk reaches that has no manifest entry at all.
package sim

import "corpus/internal/checkpoint"

// Machine is the corpus checkpoint root.
type Machine struct {
	cfg  int
	cyc  int64
	temp int64 // want:checkpointcoverage
	hist []Entry
	lost int64 // want:checkpointcoverage
	g    Ghost
	gen  uint32 // want:checkpointcoverage
	// rows is wire state: the walk needs no manifest entry for
	// checkpoint.Row, and the capture clone writes all of its fields.
	rows []checkpoint.Row
}

// Entry is reached through Machine.hist and fully covered.
type Entry struct {
	V int64
}

// Ghost is reached through Machine.g but has no manifest entry.
type Ghost struct { // want:checkpointcoverage
	N int
}
