//go:build ignore

package sim

import "reflect"

// checkpointManifest is the corpus ledger. It omits Machine.temp, lists
// the long-gone Machine.gone, and keeps an entry for a type the walk can
// no longer reach.
var checkpointManifest = map[string]map[string]string{
	"sim.Machine": {
		"cfg":  "config",
		"cyc":  "state",
		"hist": "state",
		"lost": "state",
		"g":    "state",
		"gen":  "state",
		"rows": "state",
		"rec":  "state",
		"gone": "state", // want:checkpointcoverage
	},
	"sim.Entry": {
		"V": "state",
	},
	"sim.Unused": {}, // want:checkpointcoverage
}

// checkpointRoots mirrors the real repo's shape.
func checkpointRoots() []reflect.Type {
	return []reflect.Type{
		reflect.TypeOf(Machine{}),
	}
}

var _ = checkpointManifest
