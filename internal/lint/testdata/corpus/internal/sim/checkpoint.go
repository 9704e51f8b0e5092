package sim

import "corpus/internal/checkpoint"

// Capture snapshots m into the mirror tree. It deliberately omits
// Machine.lost (seeding the uncaptured-state-field diagnostic) and writes
// nothing into SimState.Orphan (seeding the mirror-coverage diagnostic).
// Restore never writes Machine.gen (seeding the restore-coverage
// diagnostic).
func (m *Machine) Capture() checkpoint.SimState {
	st := checkpoint.SimState{
		Cyc:  m.cyc,
		Gen:  m.gen,
		Rows: append([]checkpoint.Row(nil), m.rows...),
	}
	for _, e := range m.hist {
		st.Hist = append(st.Hist, e.V)
	}
	_ = m.g
	return st
}

// Restore rebuilds m from st.
func (m *Machine) Restore(st checkpoint.SimState) {
	m.cyc = st.Cyc
	m.rows = append(m.rows[:0], st.Rows...)
	m.hist = m.hist[:0]
	for _, v := range st.Hist {
		m.hist = append(m.hist, Entry{V: v})
	}
}
