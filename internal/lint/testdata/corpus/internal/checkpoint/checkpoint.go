// Package checkpoint is the corpus mirror tree: serializable snapshots of
// the corpus sim package's state.
package checkpoint

// State is the mirror root: the mirror-coverage walk checks the structs
// reachable from it. Epoch is written only by this package's own decoder
// (checkpoint_binary.go), which is not capture code: it must be flagged.
type State struct {
	Sim   SimState
	Epoch uint32 // want:checkpointcoverage
}

// SimState mirrors sim.Machine. Orphan is written by no capture code: the
// mirror-coverage check must flag it.
type SimState struct {
	Cyc    int64
	Hist   []int64
	Orphan int // want:checkpointcoverage
}
