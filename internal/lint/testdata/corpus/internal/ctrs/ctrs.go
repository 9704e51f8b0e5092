// Package ctrs declares counter groups that another package writes, as
// the real checkpoint package declares the core's and the uncore's.
package ctrs

// Stats embeds one group per owner; writers reach their fields promoted.
type Stats struct {
	RetireCounters
	PortCounters
}

// RetireCounters is owned by stage_retire.go in the writing package (the
// default ownership).
type RetireCounters struct {
	Retired uint64
	Hist    [4]uint64
}

// PortCounters is owned by port.go in the writing package.
//
//lint:owner port.go
type PortCounters struct {
	Requests uint64
}
