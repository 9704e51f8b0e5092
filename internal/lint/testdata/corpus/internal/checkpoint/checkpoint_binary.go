// checkpoint_binary.go is the corpus stand-in for the checkpoint
// package's own codec. Its decoder assigns mirror fields, but a codec
// write is not a capture: State.Epoch, which no capture code writes, must
// still be flagged. The codec's own structs are not reachable from State,
// so the mirror-coverage walk must skip them even though nothing outside
// this package writes their fields. No markers here.
package checkpoint

// decoder walks an encoded stream.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u32() uint32 {
	v := uint32(d.b[d.off])
	d.off++
	return v
}

// Decode rebuilds a State from b.
func Decode(b []byte) State {
	d := &decoder{b: b}
	var st State
	st.Epoch = d.u32()
	st.Sim.Cyc = int64(d.u32())
	return st
}
