package core

// retireStep writes the retire groups from their owning file: must pass.
func (c *core) retireStep(lines uint64) {
	c.ct.retire.instructions++
	c.ct.retire.occ[lines%3] += lines
	// A group declared in another package is owned by default by the
	// writing package's stage_<group>.go, promoted or not.
	c.stats.Retired++
	ct := &c.stats.RetireCounters
	ct.Hist[0]++
	// Reads are unrestricted everywhere.
	_ = c.ct.pipe.cycles
}
