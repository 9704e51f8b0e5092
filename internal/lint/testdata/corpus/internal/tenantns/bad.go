// Package tenantns exercises the tenantnamespace analyzer from a
// core-private package: registering into uncore.* or the reserved
// tenantN.* namespace must be flagged, ordinary namespaces must not.
package tenantns

import (
	"fmt"

	"corpus/internal/metrics"
)

var v uint64

func zero() float64 { return 0 }

// Register wires this package's counters into reg.
func Register(reg *metrics.Registry, id int) {
	reg.Counter("core.retired", &v)                              // fine: own namespace
	reg.Counter("uncore.l2.sneaky", &v)                          // want:tenantnamespace
	reg.Gauge("uncore.occupancy", zero)                          // want:tenantnamespace
	reg.Counter(fmt.Sprintf("uncore.tenant%d.requests", id), &v) // want:tenantnamespace
	reg.Counter("tenant0.ipc", &v)                               // want:tenantnamespace
	reg.Gauge(fmt.Sprintf("tenant%d.mpki", id), zero)            // want:tenantnamespace
	reg.Counter("tenancy.total", &v)                             // fine: "tenant" not followed by an index
	reg.Counter(prefix+".hits", &v)                              // fine: non-constant-prefix names are out of scope
}

var prefix = pick()

func pick() string { return "cache" }
