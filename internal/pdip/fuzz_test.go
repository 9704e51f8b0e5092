package pdip

import (
	"testing"

	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

// FuzzPDIPTableInsertLookup feeds the PDIP table fuzzer-chosen
// (trigger, target) retirements with the insertion filters disabled
// (InsertProb 1, no high-cost gate) and checks the table's round-trip
// contract after every insert: the association is immediately visible to
// DebugHolds, and an FTQ probe of the trigger emits the target. Capacity
// eviction of older pairs is legal; losing the pair just inserted is not.
func FuzzPDIPTableInsertLookup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{7, 7, 1, 200, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(Config{
			InsertProb:      1,
			RequireHighCost: false,
			IgnoreReturns:   false,
			Seed:            0x5eed,
		})
		var out []prefetch.Request
		for i := 0; i+1 < len(data); i += 2 {
			trig := isa.Addr(uint64(data[i])+1) * isa.LineSize
			line := isa.Addr(uint64(data[i+1])+1) * isa.LineSize
			if trig == line {
				continue // self-triggering pairs are dropped by design
			}
			p.OnLineRetired(prefetch.RetireEvent{
				Line:           line,
				Missed:         true,
				FEC:            true,
				ResteerTrigger: trig,
			})
			if !p.DebugHolds(trig, line) {
				t.Fatalf("pair %d: table does not hold %#x → %#x right after insert",
					i/2, uint64(trig), uint64(line))
			}
			out = p.OnFTQInsert(trig, out[:0])
			found := false
			for _, r := range out {
				if r.Line == line {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("pair %d: FTQ probe of trigger %#x emitted %d requests, none for %#x",
					i/2, uint64(trig), len(out), uint64(line))
			}
		}
	})
}
