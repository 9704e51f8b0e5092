package core

import (
	"corpus/internal/ctrs"
	"corpus/internal/metrics"
)

// counters groups the stage-owned counters declared in this package.
type counters struct {
	retire retireCounters
	pipe   pipeCounters
}

// retireCounters is owned by the retire stage (default ownership:
// stage_retire.go).
type retireCounters struct {
	instructions uint64
	occ          [3]uint64
}

// pipeCounters is owned by the cycle loop, not a stage file.
//
//lint:owner core.go
type pipeCounters struct {
	cycles uint64
}

// core holds the local groups and a record of groups declared in ctrs.
type core struct {
	ct    counters
	stats ctrs.Stats
}

// register binds counters by address, which writes nothing: must pass.
func (c *core) register(reg *metrics.Registry) {
	reg.Counter("core.instructions", &c.ct.retire.instructions)
	reg.Counter("core.cycles", &c.ct.pipe.cycles)
	reg.Counter("core.retired", &c.stats.Retired)
}
