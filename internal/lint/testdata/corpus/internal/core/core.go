package core

import (
	"corpus/internal/ctrs"
	"corpus/internal/metrics"
)

// step writes the pipe group from core.go, the file the //lint:owner
// directive names: must pass.
func (c *core) step() {
	c.ct.pipe.cycles++
}

// reset assigns whole records, which writes no field through a group:
// must pass.
func (c *core) reset() {
	c.ct = counters{}
	c.stats = ctrs.Stats{}
}

// Run drives the miniature core.
func Run(cycles int) uint64 {
	c := &core{}
	c.register(&metrics.Registry{})
	for i := 0; i < cycles; i++ {
		c.step()
		c.retireStep(1)
		c.portStep()
	}
	c.decodeStep()
	n := c.ct.pipe.cycles
	c.reset()
	return n
}
