// Package clockutil is an importable helper package outside internal/:
// determinism covers it like any simulation package, so each
// nondeterminism source is flagged where it is written.
package clockutil

import (
	"math/rand" // want:determinism
	"time"
)

// Stamp reads the host clock: a source.
func Stamp() int64 { return time.Now().UnixNano() } // want:determinism

// Elapsed has a clean body and calls Stamp: callers of a source are not
// reported, the source itself is.
func Elapsed(start int64) int64 { return Stamp() - start }

// Jitter draws from the global math/rand stream: a source, flagged at
// its import.
func Jitter() int { return rand.Intn(8) }

// Keys returns map keys in iteration order without sorting: a map-order
// source.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want:determinism
	}
	return out
}

// Bench reads the host clock too, but the source is blessed: the
// suppression covers it (and, being used, is not stale).
func Bench() int64 {
	//lint:ignore determinism benchmark harness helper, audited as non-simulation
	return time.Now().UnixNano()
}
