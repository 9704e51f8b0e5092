package core

// portStep writes ctrs.PortCounters from port.go, the file its
// //lint:owner directive in package ctrs names: must pass.
func (c *core) portStep() {
	p := &c.stats.PortCounters
	p.Requests++
}
