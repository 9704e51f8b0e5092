package core

import (
	"pdip/internal/frontend"
	"pdip/internal/isa"
)

// FEC (front-end criticality) shared state queries. The FEC sets live on
// Core because three stages consult them: retire writes them, fetch reads
// them for FEC-Ideal service, and the prefetch-drain stage reads the
// promotion set to tag fills with the EMISSARY P-bit.

// priorityOf reports whether a fill of line carries the EMISSARY P-bit:
// the line was EMISSARY-promoted. Demand fills and, through PQ.Drain,
// prefetched ones ask it alike (PDIP+EMISSARY physical synergy: one
// FEC-tracking mechanism).
func (co *Core) priorityOf(line isa.Addr) bool {
	if !co.cfg.Emissary && !co.cfg.FECIdeal {
		return false
	}
	_, ok := co.promoted[line]
	return ok
}

// isFECEver reports whether line ever met the FEC conditions (FEC-Ideal).
func (co *Core) isFECEver(line isa.Addr) bool {
	_, ok := co.fecEver[line]
	return ok
}

// recordFECDiagnostics files one FEC episode into the CollectSets-only
// core.fec.holds.* and core.fec.req_age.* classifications.
func (co *Core) recordFECDiagnostics(ep *frontend.LineEpisode) {
	if co.pfSet == nil {
		return
	}
	if holder, ok := co.pf.(interface{ DebugHolds(t, l isa.Addr) bool }); ok {
		switch {
		case ep.ResteerTrigger == 0:
			co.fecHolds[0]++
		case holder.DebugHolds(ep.ResteerTrigger, ep.Line):
			co.fecHolds[1]++
		default:
			co.fecHolds[2]++
		}
	}
	if at, ok := co.pfSet[ep.Line]; !ok {
		co.fecReqAge[0]++
	} else if age := ep.FetchCycle - at; age > 10000 {
		co.fecReqAge[1]++
	} else if age > 100 {
		co.fecReqAge[2]++
	} else {
		co.fecReqAge[3]++
	}
}
