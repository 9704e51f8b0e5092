// Package uncore is the corpus stand-in for the real shared-level
// package: it is the one place allowed to mint uncore.* metric names
// (tenantN.* stays reserved even here).
package uncore

import (
	"fmt"

	"corpus/internal/metrics"
)

var hits, requests, fills, cycles uint64

// Register mints the shared-level namespaces — all legal here.
func Register(reg *metrics.Registry, id int) {
	reg.Counter("uncore.l2.hits", &hits)
	reg.Counter(fmt.Sprintf("uncore.tenant%d.requests", id), &requests)
	reg.Gauge("uncore.l3.fill_rate", func() float64 { return float64(fills) })
	reg.Counter("tenant1.cycles", &cycles) // want:tenantnamespace
}
