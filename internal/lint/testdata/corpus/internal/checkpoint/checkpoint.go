// Package checkpoint is the corpus mirror tree: serializable snapshots of
// the corpus sim package's state.
package checkpoint

// State is the mirror root: the mirror-coverage walk checks the structs
// reachable from it. Epoch is written only by this package's own decoder
// (checkpoint_binary.go), which is not capture code: it must be flagged.
// No capture builds a State, so Sim is flagged as well: a field holding a
// mirror struct must be written itself, not only through its fields.
type State struct {
	Sim   SimState // want:checkpointcoverage
	Epoch uint32   // want:checkpointcoverage
}

// SimState mirrors sim.Machine. Orphan is written by no capture code: the
// mirror-coverage check must flag it.
type SimState struct {
	Cyc    int64
	Hist   []int64
	Gen    uint32
	Rows   []Row
	Rec    Rec
	Orphan int // want:checkpointcoverage
}

// Rec is a record sim.Machine keeps in this wire shape, captured by a
// wholesale copy. The copy writes Pred's fields too, since Rec holds Pred
// by value; Link is only pointed at, so the copy shares it and writes
// none of its fields: they must be flagged.
type Rec struct {
	Seq  int64
	Pred Pred
	Via  *Link
}

// Pred is held by value inside Rec.
type Pred struct {
	Taken  bool
	Target int64
}

// Link is held through a pointer inside Rec.
type Link struct {
	N int // want:checkpointcoverage
}

// Row is one table row that sim.Machine keeps in this wire shape.
type Row struct {
	A, B int64
}
