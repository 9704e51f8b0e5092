package core

// decodeStep writes other groups' counters: must flag.
func (c *core) decodeStep() {
	c.ct.retire.instructions++ // want:counterownership
	c.ct.pipe.cycles += 2      // want:counterownership
	c.ct.retire.occ[1] = 0     // want:counterownership
	c.stats.Retired++          // want:counterownership
	c.stats.Hist[3]--          // want:counterownership
	c.stats.Requests++         // want:counterownership
	// Reads are unrestricted everywhere.
	_ = c.stats.Requests + c.ct.retire.instructions
}
