// Binary columnar wire format (FormatVersion 9).
//
// One plan per type, built once by reflection from the State declarations,
// drives both Encode and DecodeBytes, so each layout is written only once:
// in its struct. The stream is a 4-byte magic ("PDCK") and State.Version
// as a varint, then the rest of State, fields in declaration order, each
// encoded by a rule that follows its Go type:
//
//   - uint16/uint32/uint64 (and isa.Addr): unsigned varint; int/int32/
//     int64: zigzag varint; bool/uint8/int8: one byte (a bool must be 0 or
//     1)
//   - strings: interned — first use writes ref 0 + length + bytes, later
//     uses write index+1; the table is keyed by first-use order, so
//     identical states produce identical bytes
//   - fixed arrays: inline, no length; *T: a presence byte, then T
//   - []uint8/[]int8/Bitmask: a length and the raw bytes; []bool: a length
//     and the bits packed eight to a byte
//   - []uint64/[]int64/[]isa.Addr: a length and zigzag deltas — sorted or
//     clustered columns (cache tags, MSHR deadlines, address sets) cost 1–2
//     bytes per entry instead of 8
//   - any other slice: a count, then its elements. A slice whose element
//     holds only fixed-width scalars (TAGEEntry, BTBEntryState, UopState,
//     OwnerStats, …) is written field-major: one column per leaf field,
//     each a typed loop over the elements. Any other element is written
//     whole, one after another.
//
// Two struct tags carry what the types cannot:
//
//   - ckpt:"sec=N" frames a field as a section: `id byte + uint32 LE
//     payload length + payload`. The decoder requires each section to
//     consume exactly its declared payload.
//   - ckpt:"delta" codes a 64-bit integer field of a slice element as the
//     zigzag delta from the same field of the previous element (sorted line
//     addresses, clustered BTB tags).
//
// A State field of a type the wire cannot carry (float, map, interface,
// func, chan) or a misplaced tag fails the plan build, naming the field
// path; Encode and DecodeBytes then return that error.
//
// There is no compression layer: the columnar layout already removes the
// field-name overhead gzip existed to claw back, and skipping it keeps
// encode/decode off the critical path of every fork.
//
// Determinism contract: the state structs hold no maps and every plan walks
// fields in declaration order, so encoding the same state twice yields
// identical bytes — the property content addressing (Key, Dir) and the
// fabric's warm-once leases rely on.
//
// The decoder never trusts the input: every count is checked against the
// remaining bytes at the element type's minimum encoded size (derived from
// its plan) before anything is allocated; varints must fit their field;
// sections must consume exactly their payload, and trailing bytes are an
// error. Corruption surfaces as an error from DecodeBytes, never a panic
// (FuzzBinaryCheckpointDecode pins this).
//
// The plan walks values with unsafe.Pointer arithmetic at the field
// offsets reflect reports. Every pointer it forms lies inside the value
// being walked — element i of a slice is data + i*size, for i < len only —
// so the GC never sees a pointer one past an allocation (go test -race
// runs checkptr over it).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

var binMagic = [4]byte{'P', 'D', 'C', 'K'}

// opKind is one wire rule.
type opKind uint8

const (
	// Fixed-width scalars: the only kinds a field-major column may hold.
	opU8    opKind = iota // uint8/int8: one byte
	opBool                // one byte, 0 or 1
	opU16                 // uvarint; the decoder rejects overflow
	opU32                 // uvarint; the decoder rejects overflow
	opU64                 // uvarint
	opI32                 // zigzag varint; the decoder rejects overflow
	opI64                 // zigzag varint
	opDelta               // zigzag delta from the previous element: ckpt:"delta", []uint64/[]int64
	// Variable-width values.
	opStr     // interned string
	opPtr     // presence byte, then the pointee
	opBytes   // length + raw bytes
	opBools   // length + packed bits
	opSlice   // count + elements
	opSection // id + uint32 LE payload length + payload
)

// op applies one rule to the value at offset off from its enclosing base.
type op struct {
	kind opKind
	off  uintptr
	// id is the section id (opSection).
	id byte
	// slot indexes the delta frame of a whole-element slice (opDelta).
	slot int
	// sub is the pointee, section or element plan (opPtr, opSection,
	// opSlice).
	sub *plan
	// typ is the pointee type (opPtr) or the slice type (opSlice), for the
	// decoder's allocations.
	typ reflect.Type
}

// plan is one type's compiled layout: nested structs and fixed arrays are
// flattened into the op list at their offsets.
type plan struct {
	ops []op
	// size is the Go size of one value: a slice element's stride.
	size uintptr
	// min lower-bounds one value's encoded size: the decoder's allocation
	// guard for counts of it.
	min int
	// flat marks a slice element of fixed-width scalars only, written
	// field-major.
	flat bool
	// deltas is the number of delta slots a whole-element slice carries
	// from one element to the next.
	deltas int
}

// statePlan is State's plan, built on first use. State.Version is left to
// the header.
var statePlan = sync.OnceValues(func() (*plan, error) {
	t := reflect.TypeFor[State]()
	p := &plan{size: t.Size()}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Name != "Version" {
			if err := p.field(f, 0, "State", false); err != nil {
				return nil, err
			}
		}
	}
	p.finish()
	return p, nil
})

// compile builds the plan of t. elem marks t as a slice element, whose
// direct fields may carry ckpt:"delta".
func compile(t reflect.Type, path string, elem bool) (*plan, error) {
	p := &plan{size: t.Size()}
	if err := p.add(t, 0, path, elem); err != nil {
		return nil, err
	}
	p.finish()
	return p, nil
}

// add appends the ops for a value of type t at offset off.
func (p *plan) add(t reflect.Type, off uintptr, path string, elem bool) error {
	kind := opU8
	switch t.Kind() {
	case reflect.Uint8, reflect.Int8:
	case reflect.Bool:
		kind = opBool
	case reflect.Uint16:
		kind = opU16
	case reflect.Uint32:
		kind = opU32
	case reflect.Uint64:
		kind = opU64
	case reflect.Int32:
		kind = opI32
	case reflect.Int, reflect.Int64:
		kind = opI64
		if t.Size() == 4 {
			kind = opI32
		}
	case reflect.String:
		kind = opStr
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			if err := p.add(t.Elem(), off+uintptr(i)*t.Elem().Size(), path+"["+strconv.Itoa(i)+"]", false); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if err := p.field(t.Field(i), off, path, elem); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer:
		sub, err := compile(t.Elem(), path, false)
		if err != nil {
			return err
		}
		p.ops = append(p.ops, op{kind: opPtr, off: off, sub: sub, typ: t.Elem()})
		return nil
	case reflect.Slice:
		switch t.Elem().Kind() {
		case reflect.Uint8, reflect.Int8:
			kind = opBytes
		case reflect.Bool:
			kind = opBools
		default:
			sub, err := compile(t.Elem(), path+"[]", true)
			if err != nil {
				return err
			}
			if k := t.Elem().Kind(); k == reflect.Uint64 || k == reflect.Int64 {
				sub.ops[0].kind = opDelta // a column of zigzag deltas
			}
			p.ops = append(p.ops, op{kind: opSlice, off: off, sub: sub, typ: t})
			return nil
		}
	default:
		return fmt.Errorf("checkpoint: %s: the wire format cannot carry a %s", path, t)
	}
	p.ops = append(p.ops, op{kind: kind, off: off})
	return nil
}

// field appends the ops for struct field f of the value at base, applying
// its ckpt tag.
func (p *plan) field(f reflect.StructField, base uintptr, path string, elem bool) error {
	path += "." + f.Name
	off := base + f.Offset
	tag, ok := f.Tag.Lookup("ckpt")
	switch {
	case !ok:
		return p.add(f.Type, off, path, false)
	case tag == "delta":
		if !elem {
			return fmt.Errorf("checkpoint: %s: ckpt:\"delta\" on a field outside a slice element", path)
		}
		switch f.Type.Kind() {
		case reflect.Uint64, reflect.Int64, reflect.Int:
			if f.Type.Size() == 8 {
				p.ops = append(p.ops, op{kind: opDelta, off: off, slot: p.deltas})
				p.deltas++
				return nil
			}
		}
		return fmt.Errorf("checkpoint: %s: ckpt:\"delta\" on a %s, want a 64-bit integer", path, f.Type)
	case strings.HasPrefix(tag, "sec="):
		id, err := strconv.ParseUint(tag[len("sec="):], 10, 8)
		if err != nil {
			return fmt.Errorf("checkpoint: %s: bad section tag %q", path, tag)
		}
		sub, err := compile(f.Type, path, false)
		if err != nil {
			return err
		}
		p.ops = append(p.ops, op{kind: opSection, off: off, id: byte(id), sub: sub})
		return nil
	}
	return fmt.Errorf("checkpoint: %s: unknown ckpt tag %q", path, tag)
}

// finish derives min and flat from the op list.
func (p *plan) finish() {
	p.flat = true
	for i := range p.ops {
		switch o := &p.ops[i]; o.kind {
		case opSection:
			p.min += 5 + o.sub.min
			p.flat = false
		default:
			p.min++
			p.flat = p.flat && o.kind <= opDelta
		}
	}
	p.min = max(p.min, 1)
}

// sliceHeader is the runtime layout of every slice type.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// Encode writes st to w in the binary columnar format. Identical states
// encode to identical bytes — the property content addressing relies on.
func Encode(w io.Writer, st *State) error {
	p, err := statePlan()
	if err != nil {
		return err
	}
	e := encoders.take()
	if e == nil {
		e = new(encoder)
	}
	e.reset()
	e.buf = append(e.buf, binMagic[:]...)
	e.uv(uint64(st.Version))
	e.encode(unsafe.Pointer(st), p, 0)
	_, err = w.Write(e.buf)
	if cap(e.buf) <= maxKeptBuf {
		encoders.give(e)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// DecodeBytes reads a state previously written by Encode. A version
// mismatch is an error: the caller treats it as a cache miss and re-warms.
// The returned state never aliases b: byte columns and strings are copied
// out, so the caller may recycle b.
func DecodeBytes(b []byte) (st *State, err error) {
	p, err := statePlan()
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(corrupt)
			if !ok {
				panic(r)
			}
			st, err = nil, fmt.Errorf("checkpoint: decode: corrupt stream: %s", c.msg)
		}
	}()
	d := &decoder{b: b}
	ver := d.header()
	if ver != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", ver, FormatVersion)
	}
	st = &State{Version: ver}
	d.decode(unsafe.Pointer(st), p, 0)
	d.done()
	return st, nil
}

// corrupt is the decoder's internal corruption signal; DecodeBytes
// converts it to an error.
type corrupt struct{ msg string }

// ---------------------------------------------------------------------------
// Encoder

// encoders keeps encoders, and readBufs the buffers Dir reads files
// into, between uses: a warmed state encodes to hundreds of KB, and the
// save, fork and disk-load paths repeat with identical sizes. Both are
// shared by the process rather than held per Dir, since a process may
// open a Dir per Runner or per pass over a store, and each would make
// its buffers again.
var (
	encoders = keep[*encoder]{max: 2}
	readBufs = keep[[]byte]{max: 2}
)

// maxKeptBuf bounds the encoder and read buffers kept for reuse: a
// larger one is dropped, so one outsized state does not pin its buffer.
const maxKeptBuf = 8 << 20

// keep holds up to max idle values. Unlike a sync.Pool it holds them
// across garbage collections, which a process whose live heap is small
// runs every few forks.
type keep[T any] struct {
	mu   sync.Mutex
	max  int
	idle []T
}

// take returns the most recently given value, or the zero T when none
// is idle.
func (k *keep[T]) take() T {
	var v T
	k.mu.Lock()
	if n := len(k.idle); n > 0 {
		v, k.idle[n-1] = k.idle[n-1], v
		k.idle = k.idle[:n-1]
	}
	k.mu.Unlock()
	return v
}

// give keeps v for a later take, unless max values are idle already.
func (k *keep[T]) give(v T) {
	k.mu.Lock()
	if len(k.idle) < k.max {
		k.idle = append(k.idle, v)
	}
	k.mu.Unlock()
}

// encoder accumulates the wire bytes.
type encoder struct {
	buf []byte
	// strs is the intern table: name → emitted index, keyed by first-use
	// order. Lookup only — never iterated — so it cannot perturb byte
	// determinism.
	strs map[string]uint64
	// prev holds the delta frames of the whole-element slices being
	// written, innermost last.
	prev []uint64
}

func (e *encoder) reset() {
	e.buf = e.buf[:0]
	e.prev = e.prev[:0]
	if e.strs == nil {
		e.strs = make(map[string]uint64)
	} else {
		clear(e.strs)
	}
}

func (e *encoder) uv(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) sv(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }

func (e *encoder) str(s string) {
	if idx, ok := e.strs[s]; ok {
		e.uv(idx + 1)
		return
	}
	e.strs[s] = uint64(len(e.strs))
	e.uv(0)
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// encode writes the value at base by plan p; fr is the index of the
// enclosing slice's delta frame in e.prev.
func (e *encoder) encode(base unsafe.Pointer, p *plan, fr int) {
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		switch o.kind {
		case opDelta:
			x := *(*uint64)(at)
			e.sv(int64(x - e.prev[fr+o.slot]))
			e.prev[fr+o.slot] = x
		case opStr:
			e.str(*(*string)(at))
		case opPtr:
			q := *(*unsafe.Pointer)(at)
			if q == nil {
				e.buf = append(e.buf, 0)
				break
			}
			e.buf = append(e.buf, 1)
			e.encode(q, o.sub, 0)
		case opBytes:
			s := *(*[]byte)(at)
			e.uv(uint64(len(s)))
			e.buf = append(e.buf, s...)
		case opBools:
			e.bools(*(*[]bool)(at))
		case opSlice:
			e.slice((*sliceHeader)(at), o.sub)
		case opSection:
			e.buf = append(e.buf, o.id, 0, 0, 0, 0)
			lenOff := len(e.buf) - 4
			e.encode(at, o.sub, 0)
			binary.LittleEndian.PutUint32(e.buf[lenOff:], uint32(len(e.buf)-lenOff-4))
		default: // a fixed-width scalar is a column of one
			e.column(at, 1, 0, o.kind)
		}
	}
}

// bools packs a bool column into a length-prefixed bitmask.
func (e *encoder) bools(bs []bool) {
	e.uv(uint64(len(bs)))
	var acc byte
	for i, v := range bs {
		if v {
			acc |= 1 << (i % 8)
		}
		if i%8 == 7 {
			e.buf = append(e.buf, acc)
			acc = 0
		}
	}
	if len(bs)%8 != 0 {
		e.buf = append(e.buf, acc)
	}
}

// slice writes a count and then the elements: field-major for flat
// elements, one whole element after another otherwise.
func (e *encoder) slice(s *sliceHeader, p *plan) {
	n := s.len
	e.uv(uint64(n))
	if n == 0 {
		return
	}
	if p.flat {
		for i := range p.ops {
			e.column(unsafe.Add(s.data, p.ops[i].off), n, p.size, p.ops[i].kind)
		}
		return
	}
	fr := len(e.prev)
	for range p.deltas {
		e.prev = append(e.prev, 0)
	}
	for i := 0; i < n; i++ {
		e.encode(unsafe.Add(s.data, uintptr(i)*p.size), p, fr)
	}
	e.prev = e.prev[:fr]
}

// column writes one leaf field of n elements: first points at element 0's
// field, and element i's lies size*i bytes further on.
func (e *encoder) column(first unsafe.Pointer, n int, size uintptr, kind opKind) {
	at := func(i int) unsafe.Pointer { return unsafe.Add(first, uintptr(i)*size) }
	switch kind {
	case opU8, opBool:
		for i := 0; i < n; i++ {
			e.buf = append(e.buf, *(*uint8)(at(i)))
		}
	case opU16:
		for i := 0; i < n; i++ {
			e.uv(uint64(*(*uint16)(at(i))))
		}
	case opU32:
		for i := 0; i < n; i++ {
			e.uv(uint64(*(*uint32)(at(i))))
		}
	case opU64:
		for i := 0; i < n; i++ {
			e.uv(*(*uint64)(at(i)))
		}
	case opI32:
		for i := 0; i < n; i++ {
			e.sv(int64(*(*int32)(at(i))))
		}
	case opI64:
		for i := 0; i < n; i++ {
			e.sv(*(*int64)(at(i)))
		}
	case opDelta:
		var prev uint64
		for i := 0; i < n; i++ {
			x := *(*uint64)(at(i))
			e.sv(int64(x - prev))
			prev = x
		}
	}
}

// ---------------------------------------------------------------------------
// Decoder

// decoder walks the wire bytes with strict bounds checks; any
// inconsistency panics with corrupt, recovered by DecodeBytes.
type decoder struct {
	b   []byte
	off int
	// strs is the intern table in first-use order.
	strs []string
	// prev mirrors encoder.prev.
	prev []uint64
}

func (d *decoder) fail(format string, args ...any) {
	panic(corrupt{fmt.Sprintf(format+" at offset %d", append(args, d.off)...)})
}

func (d *decoder) need(n int) {
	if n < 0 || len(d.b)-d.off < n {
		d.fail("need %d bytes, have %d", n, len(d.b)-d.off)
	}
}

func (d *decoder) header() int {
	d.need(4)
	if [4]byte(d.b[:4]) != binMagic {
		d.fail("bad magic %x", d.b[:4])
	}
	d.off = 4
	v := d.uv()
	if v > math.MaxInt32 {
		d.fail("absurd version %d", v)
	}
	return int(v)
}

func (d *decoder) done() {
	if d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
}

func (d *decoder) u8() byte {
	d.need(1)
	v := d.b[d.off]
	d.off++
	return v
}

// uv reads an unsigned varint.
func (d *decoder) uv() uint64 {
	if i := d.off; i < len(d.b) && d.b[i] < 0x80 {
		d.off = i + 1
		return uint64(d.b[i])
	}
	return d.uvLong()
}

// uvLong reads a uvarint whose first byte is not a whole value. With
// eight bytes left, a value of at most eight bytes (any below 2^56) is
// gathered from one 64-bit load instead of a byte at a time; a longer
// one, or one near the end, takes binary.Uvarint.
func (d *decoder) uvLong() uint64 {
	if i := d.off; len(d.b)-i >= 8 {
		x := binary.LittleEndian.Uint64(d.b[i:])
		if stop := ^x & 0x8080808080808080; stop != 0 {
			n := bits.TrailingZeros64(stop) + 1 // 8 × the value's bytes
			x &= math.MaxUint64 >> (64 - n)
			// Drop each byte's continuation bit and close the gaps:
			// 7-bit groups to 14, 14 to 28, 28 to 56.
			x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
			x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
			x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
			d.off = i + n/8
			return x
		}
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
	}
	d.off += n
	return v
}

// sv reads a signed (zigzag) varint.
func (d *decoder) sv() int64 { return unzigzag(d.uv()) }

// unzigzag maps a zigzag-coded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(u uint64) int64 {
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail("bad bool %d", v)
	}
	return v == 1
}

// count reads an element count and rejects any claim that could not fit
// in the remaining bytes at minBytes per element — the allocation guard
// that keeps adversarial inputs from forcing huge makes.
func (d *decoder) count(minBytes int) int {
	n := d.uv()
	if n > uint64(len(d.b)-d.off)/uint64(minBytes) {
		d.fail("count %d exceeds remaining input", n)
	}
	return int(n)
}

func (d *decoder) str() string {
	ref := d.uv()
	if ref == 0 {
		n := d.count(1)
		d.need(n)
		s := string(d.b[d.off : d.off+n])
		d.off += n
		d.strs = append(d.strs, s)
		return s
	}
	if ref-1 >= uint64(len(d.strs)) {
		d.fail("intern ref %d out of range", ref)
	}
	return d.strs[ref-1]
}

// decode fills the value at base by plan p; fr is the index of the
// enclosing slice's delta frame in d.prev.
func (d *decoder) decode(base unsafe.Pointer, p *plan, fr int) {
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		switch o.kind {
		case opDelta:
			d.prev[fr+o.slot] += uint64(d.sv())
			*(*uint64)(at) = d.prev[fr+o.slot]
		case opStr:
			*(*string)(at) = d.str()
		case opPtr:
			if d.bool() {
				q := reflect.New(o.typ).UnsafePointer()
				*(*unsafe.Pointer)(at) = q
				d.decode(q, o.sub, 0)
			}
		case opBytes:
			n := d.count(1)
			d.need(n)
			if n > 0 {
				*(*[]byte)(at) = append([]byte(nil), d.b[d.off:d.off+n]...)
				d.off += n
			}
		case opBools:
			*(*[]bool)(at) = d.bools()
		case opSlice:
			d.slice(at, o)
		case opSection:
			d.need(5)
			if d.b[d.off] != o.id {
				d.fail("section id %d, want %d", d.b[d.off], o.id)
			}
			n := int(binary.LittleEndian.Uint32(d.b[d.off+1:]))
			d.off += 5
			d.need(n)
			end := d.off + n
			d.decode(at, o.sub, 0)
			if d.off != end {
				d.fail("section %d length mismatch: ended at %d, want %d", o.id, d.off, end)
			}
		default: // a fixed-width scalar is a column of one
			d.column(at, 1, 0, o.kind)
		}
	}
}

func (d *decoder) bools() []bool {
	n := d.uv()
	if n > uint64(len(d.b)-d.off)*8 {
		d.fail("bool count %d exceeds remaining input", n)
	}
	nb := int(n+7) / 8
	d.need(nb)
	if n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.b[d.off+i/8]>>(i%8)&1 != 0
	}
	d.off += nb
	return out
}

// slice decodes the slice op o into the slice at at: a guarded count,
// one allocation, then the columns or the whole elements. An empty slice
// stays nil.
func (d *decoder) slice(at unsafe.Pointer, o *op) {
	p := o.sub
	n := d.count(p.min)
	if n == 0 {
		return
	}
	v := reflect.NewAt(o.typ, at).Elem()
	v.Grow(n)
	v.SetLen(n)
	data := v.UnsafePointer()
	if p.flat {
		for i := range p.ops {
			d.column(unsafe.Add(data, p.ops[i].off), n, p.size, p.ops[i].kind)
		}
		return
	}
	fr := len(d.prev)
	for range p.deltas {
		d.prev = append(d.prev, 0)
	}
	for i := 0; i < n; i++ {
		d.decode(unsafe.Add(data, uintptr(i)*p.size), p, fr)
	}
	d.prev = d.prev[:fr]
}

// column mirrors encoder.column. The varint kinds share one loop that
// takes a one-byte value in place, the common case in sorted and
// clustered columns, and calls out only for a longer one.
func (d *decoder) column(first unsafe.Pointer, n int, size uintptr, kind opKind) {
	at := func(i int) unsafe.Pointer { return unsafe.Add(first, uintptr(i)*size) }
	switch kind {
	case opU8:
		for i := 0; i < n; i++ {
			*(*uint8)(at(i)) = d.u8()
		}
		return
	case opBool:
		for i := 0; i < n; i++ {
			*(*bool)(at(i)) = d.bool()
		}
		return
	}
	var prev uint64
	for i := 0; i < n; i++ {
		var u uint64
		if j := d.off; j < len(d.b) && d.b[j] < 0x80 {
			u = uint64(d.b[j])
			d.off = j + 1
		} else {
			u = d.uvLong()
		}
		p := at(i)
		switch kind {
		case opU16:
			if u > math.MaxUint16 {
				d.fail("uint16 overflow %d", u)
			}
			*(*uint16)(p) = uint16(u)
		case opU32:
			if u > math.MaxUint32 {
				d.fail("uint32 overflow %d", u)
			}
			*(*uint32)(p) = uint32(u)
		case opU64:
			*(*uint64)(p) = u
		case opI32:
			v := unzigzag(u)
			if v != int64(int32(v)) {
				d.fail("int32 overflow %d", v)
			}
			*(*int32)(p) = int32(v)
		case opI64:
			*(*int64)(p) = unzigzag(u)
		case opDelta:
			prev += uint64(unzigzag(u))
			*(*uint64)(p) = prev
		}
	}
}

// ---------------------------------------------------------------------------
// Footprint

// Footprint returns the bytes st holds in memory: the State itself plus
// every slice backing array, pointee and string it reaches, found by
// walking the codec's plan (nothing is encoded). It is the cost a Dir
// charges a cached state, so a Dir's budget bounds resident memory.
// Allocator size-class rounding is not counted.
func Footprint(st *State) int64 {
	p, err := statePlan()
	if err != nil {
		return int64(unsafe.Sizeof(*st))
	}
	return int64(p.size) + footprint(unsafe.Pointer(st), p)
}

// footprint sums what the value at base reaches beyond its own inline
// bytes, by plan p.
func footprint(base unsafe.Pointer, p *plan) int64 {
	var n int64
	for i := range p.ops {
		o := &p.ops[i]
		at := unsafe.Add(base, o.off)
		switch o.kind {
		case opStr:
			n += int64(len(*(*string)(at)))
		case opPtr:
			if q := *(*unsafe.Pointer)(at); q != nil {
				n += int64(o.sub.size) + footprint(q, o.sub)
			}
		case opBytes:
			n += int64(cap(*(*[]byte)(at)))
		case opBools:
			n += int64(cap(*(*[]bool)(at)))
		case opSlice:
			s := (*sliceHeader)(at)
			n += int64(s.cap) * int64(o.sub.size)
			if !o.sub.flat {
				for i := 0; i < s.len; i++ {
					n += footprint(unsafe.Add(s.data, uintptr(i)*o.sub.size), o.sub)
				}
			}
		case opSection:
			n += footprint(at, o.sub)
		}
	}
	return n
}
