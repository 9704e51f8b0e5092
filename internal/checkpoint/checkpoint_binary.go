// Binary columnar wire format (FormatVersion 5).
//
// Layout: a 4-byte magic ("PDCK") and a varint format version, then the
// socket: its clock and shared-prefetcher flag, the uncore section, a
// tenant count, and per tenant a sequence of framed sections — one per
// TenantState field group — each `id byte + uint32 little-endian payload
// length + payload`. Inside a section, fields encode in struct
// declaration order with typed column encodings:
//
//   - scalars: unsigned varint (uint16/32/64, Addr), zigzag varint
//     (int/int32/int64), single byte (uint8, bool), 8-byte LE bits
//     (float64)
//   - sorted or clustered numeric columns (cache tags, MSHR deadlines,
//     address sets): zigzag-delta varints — consecutive deltas are tiny,
//     so entries cost 1–2 bytes instead of 8
//   - bool columns: the Bitmask bytes verbatim (no base64 layer)
//   - strings (metric names, source/prefetcher kinds): interned — first
//     use writes ref 0 + length + bytes, later uses write index+1; the
//     intern table is keyed by first-use order, so identical states
//     produce identical bytes
//
// There is no compression layer: the columnar layout already removes the
// JSON field-name and base64 overhead gzip existed to claw back, and
// skipping it keeps encode/decode off the critical path of every fork.
//
// Determinism contract: the state structs hold no maps and every column
// encodes in declaration order, so encoding the same state twice yields
// identical bytes — the property content addressing (Key/Save/Load) and
// the fabric's warm-once leases rely on.
//
// The decoder never trusts the input: every length is bounds-checked
// against the remaining bytes before allocation, sections must consume
// exactly their declared payload, and trailing bytes are an error.
// Corruption surfaces as an error from Decode, never a panic
// (FuzzBinaryCheckpointDecode pins this).
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"pdip/internal/isa"
)

var binMagic = [4]byte{'P', 'D', 'C', 'K'}

// Section ids: the uncore, then one per TenantState field group.
const (
	secCore       = 1
	secMetrics    = 2
	secMem        = 3
	secBPU        = 4
	secIAG        = 5
	secEpisodes   = 6
	secFTQ        = 7
	secIFU        = 8
	secDecodeQ    = 9
	secROB        = 10
	secPQ         = 11
	secPrefetcher = 12

	secUncore = 20
)

// minTenantBytes lower-bounds one tenant's encoding (its twelve section
// headers), the decoder's allocation guard for the tenant count.
const minTenantBytes = 12 * 5

// encPool recycles encoder buffers: a warmed state encodes to hundreds of
// KB, and Save/fork paths encode repeatedly with identical sizes.
var encPool = sync.Pool{New: func() any { return new(encoder) }}

// Encode writes st to w in the binary columnar format. Identical states
// encode to identical bytes — the property content addressing relies on.
func Encode(w io.Writer, st *State) error {
	e := encPool.Get().(*encoder)
	e.reset()
	e.header(st.Version)
	e.sv(st.Now)
	e.bool(st.SharedPrefetcher)
	e.section(secUncore, func() {
		e.cache(&st.Uncore.L2)
		e.cache(&st.Uncore.L3)
		e.registry(&st.Uncore.Metrics)
	})
	e.uv(uint64(len(st.Tenants)))
	for i := range st.Tenants {
		e.tenant(&st.Tenants[i])
	}
	_, err := w.Write(e.buf)
	encPool.Put(e)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	return nil
}

// Decode reads a state previously written by Encode. A version mismatch
// is an error: the caller treats it as a cache miss and re-warms.
func Decode(r io.Reader) (*State, error) {
	b, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return DecodeBytes(b)
}

// readAll is io.ReadAll with an exact-size fast path for readers that
// know their length (bytes.Reader, bytes.Buffer): one right-sized
// allocation instead of append-doubling through megabytes of garbage.
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return io.ReadAll(r)
}

// DecodeBytes is Decode over an in-memory stream, avoiding the reader
// indirection on the fork fast path. The returned state never aliases b:
// byte columns and strings are copied out, so the caller may recycle b.
func DecodeBytes(b []byte) (st *State, err error) {
	defer catchCorrupt(&err, "decode")
	d := &decoder{b: b}
	ver := d.header()
	if ver != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", ver, FormatVersion)
	}
	st = &State{Version: ver}
	st.Now = d.sv()
	st.SharedPrefetcher = d.bool()
	end := d.section(secUncore)
	d.cache(&st.Uncore.L2)
	d.cache(&st.Uncore.L3)
	d.registry(&st.Uncore.Metrics)
	d.endSection(secUncore, end)
	st.Tenants = make([]TenantState, d.count(minTenantBytes))
	for i := range st.Tenants {
		d.tenant(&st.Tenants[i])
	}
	d.done()
	return st, nil
}

// corrupt is the decoder's internal corruption signal; catchCorrupt
// converts it to an error at the API boundary.
type corrupt struct{ msg string }

func catchCorrupt(err *error, op string) {
	if p := recover(); p != nil {
		c, ok := p.(corrupt)
		if !ok {
			panic(p)
		}
		*err = fmt.Errorf("checkpoint: %s: corrupt stream: %s", op, c.msg)
	}
}

// ---------------------------------------------------------------------------
// Encoder

// encoder accumulates the wire bytes. All appends go through the typed
// helpers so the encoding stays uniform across structs.
type encoder struct {
	buf []byte
	// strs is the intern table: name → emitted index, keyed by first-use
	// order. Lookup only — never iterated — so it cannot perturb byte
	// determinism.
	strs map[string]uint64
}

func (e *encoder) reset() {
	e.buf = e.buf[:0]
	if e.strs == nil {
		e.strs = make(map[string]uint64)
	} else {
		clear(e.strs)
	}
}

func (e *encoder) header(version int) {
	e.buf = append(e.buf, binMagic[:]...)
	e.uv(uint64(version))
}

// section frames fn's output as `id + uint32 LE length + payload`,
// patching the length after the payload is written.
func (e *encoder) section(id byte, fn func()) {
	e.buf = append(e.buf, id, 0, 0, 0, 0)
	lenOff := len(e.buf) - 4
	fn()
	binary.LittleEndian.PutUint32(e.buf[lenOff:], uint32(len(e.buf)-lenOff-4))
}

func (e *encoder) u8(v byte)       { e.buf = append(e.buf, v) }
func (e *encoder) uv(v uint64)     { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) sv(v int64)      { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) vi(v int)        { e.sv(int64(v)) }
func (e *encoder) addr(a isa.Addr) { e.uv(uint64(a)) }

func (e *encoder) bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

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

// raw writes a length-prefixed byte column (bitmasks, owner columns).
func (e *encoder) raw(b []byte) {
	e.uv(uint64(len(b)))
	e.buf = append(e.buf, b...)
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

func (e *encoder) u16s(xs []uint16) {
	e.uv(uint64(len(xs)))
	for _, x := range xs {
		e.uv(uint64(x))
	}
}

func (e *encoder) u32s(xs []uint32) {
	e.uv(uint64(len(xs)))
	for _, x := range xs {
		e.uv(uint64(x))
	}
}

func (e *encoder) i8s(xs []int8) {
	e.uv(uint64(len(xs)))
	for _, x := range xs {
		e.buf = append(e.buf, byte(x))
	}
}

// u64d writes a uint64 column as zigzag deltas: sorted or clustered
// columns (tags, addresses, counters) shrink to 1–2 bytes per entry.
// Deltas use wraparound arithmetic, so unsorted columns stay correct —
// just less compact.
func (e *encoder) u64d(xs []uint64) {
	e.uv(uint64(len(xs)))
	var prev uint64
	for _, x := range xs {
		e.sv(int64(x - prev))
		prev = x
	}
}

func (e *encoder) i64d(xs []int64) {
	e.uv(uint64(len(xs)))
	var prev int64
	for _, x := range xs {
		e.sv(x - prev)
		prev = x
	}
}

func (e *encoder) addrs(xs []isa.Addr) {
	e.uv(uint64(len(xs)))
	var prev isa.Addr
	for _, x := range xs {
		e.sv(int64(x - prev))
		prev = x
	}
}

func (e *encoder) ints(xs []int) {
	e.uv(uint64(len(xs)))
	for _, x := range xs {
		e.sv(int64(x))
	}
}

// ---------------------------------------------------------------------------
// Decoder

// decoder walks the wire bytes with strict bounds checks; any
// inconsistency panics with corrupt, recovered at the API boundary.
type decoder struct {
	b   []byte
	off int
	// strs is the intern table in first-use order.
	strs []string
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

// section consumes a section header and returns the payload's end offset;
// endSection asserts the payload was consumed exactly.
func (d *decoder) section(id byte) int {
	d.need(5)
	if d.b[d.off] != id {
		d.fail("section id %d, want %d", d.b[d.off], id)
	}
	n := int(binary.LittleEndian.Uint32(d.b[d.off+1 : d.off+5]))
	d.off += 5
	d.need(n)
	return d.off + n
}

func (d *decoder) endSection(id byte, end int) {
	if d.off != end {
		d.fail("section %d length mismatch: ended at %d, want %d", id, d.off, end)
	}
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

func (d *decoder) uv() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
	}
	d.off += n
	return v
}

func (d *decoder) sv() int64 {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
	}
	d.off += n
	return v
}

func (d *decoder) vi() int { return int(d.sv()) }

func (d *decoder) addr() isa.Addr { return isa.Addr(d.uv()) }

func (d *decoder) u16() uint16 {
	v := d.uv()
	if v > math.MaxUint16 {
		d.fail("uint16 overflow %d", v)
	}
	return uint16(v)
}

func (d *decoder) u32() uint32 {
	v := d.uv()
	if v > math.MaxUint32 {
		d.fail("uint32 overflow %d", v)
	}
	return uint32(v)
}

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool")
		return false
	}
}

func (d *decoder) f64() float64 {
	d.need(8)
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// count reads an element count and rejects any claim that could not fit
// in the remaining bytes at minBytes per element — the allocation guard
// that keeps adversarial inputs from forcing huge makes.
func (d *decoder) count(minBytes int) int {
	if minBytes < 1 {
		minBytes = 1
	}
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

func (d *decoder) raw() []byte {
	n := d.count(1)
	d.need(n)
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += n
	return out
}

func (d *decoder) boolsOut() []bool {
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

func (d *decoder) u16s() []uint16 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint16, n)
	for i := range out {
		out[i] = d.u16()
	}
	return out
}

func (d *decoder) u32s() []uint32 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.u32()
	}
	return out
}

func (d *decoder) i8s() []int8 {
	n := d.count(1)
	d.need(n)
	if n == 0 {
		return nil
	}
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(d.b[d.off+i])
	}
	d.off += n
	return out
}

func (d *decoder) u64d() []uint64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	var prev uint64
	for i := range out {
		prev += uint64(d.sv())
		out[i] = prev
	}
	return out
}

func (d *decoder) i64d() []int64 {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	var prev int64
	for i := range out {
		prev += d.sv()
		out[i] = prev
	}
	return out
}

func (d *decoder) addrs() []isa.Addr {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]isa.Addr, n)
	var prev isa.Addr
	for i := range out {
		prev += isa.Addr(d.sv())
		out[i] = prev
	}
	return out
}

func (d *decoder) intsOut() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.sv())
	}
	return out
}

// ---------------------------------------------------------------------------
// Tenant body

func (e *encoder) tenant(st *TenantState) {
	e.section(secCore, func() { e.core(&st.Core) })
	e.section(secMetrics, func() { e.registry(&st.Metrics) })
	e.section(secMem, func() {
		e.cache(&st.Mem.L1I)
		e.cache(&st.Mem.L1D)
	})
	e.section(secBPU, func() { e.bpu(&st.BPU) })
	e.section(secIAG, func() { e.iag(&st.IAG) })
	e.section(secEpisodes, func() {
		e.uv(uint64(len(st.Episodes)))
		for i := range st.Episodes {
			e.episode(&st.Episodes[i])
		}
	})
	e.section(secFTQ, func() {
		e.uv(uint64(len(st.FTQ)))
		for i := range st.FTQ {
			e.ftqEntry(&st.FTQ[i])
		}
	})
	e.section(secIFU, func() {
		if st.IFU == nil {
			e.bool(false)
			return
		}
		e.bool(true)
		e.ftqEntry(st.IFU)
	})
	e.section(secDecodeQ, func() {
		e.uv(uint64(len(st.DecodeQ)))
		for i := range st.DecodeQ {
			e.uop(&st.DecodeQ[i])
		}
	})
	e.section(secROB, func() {
		e.uv(uint64(len(st.ROB.Uops)))
		for i := range st.ROB.Uops {
			e.uop(&st.ROB.Uops[i])
		}
		e.uv(st.ROB.Stats.Pushed)
		e.uv(st.ROB.Stats.Retired)
		e.uv(st.ROB.Stats.Squashed)
	})
	e.section(secPQ, func() { e.queue(&st.PQ) })
	e.section(secPrefetcher, func() { e.prefetcher(&st.Prefetcher) })
}

func (d *decoder) tenant(st *TenantState) {
	end := d.section(secCore)
	d.core(&st.Core)
	d.endSection(secCore, end)
	end = d.section(secMetrics)
	d.registry(&st.Metrics)
	d.endSection(secMetrics, end)
	end = d.section(secMem)
	d.cache(&st.Mem.L1I)
	d.cache(&st.Mem.L1D)
	d.endSection(secMem, end)
	end = d.section(secBPU)
	d.bpu(&st.BPU)
	d.endSection(secBPU, end)
	end = d.section(secIAG)
	d.iag(&st.IAG)
	d.endSection(secIAG, end)
	end = d.section(secEpisodes)
	n := d.count(8)
	if n > 0 {
		st.Episodes = make([]EpisodeState, n)
		for i := range st.Episodes {
			d.episode(&st.Episodes[i])
		}
	}
	d.endSection(secEpisodes, end)
	end = d.section(secFTQ)
	n = d.count(8)
	if n > 0 {
		st.FTQ = make([]FTQEntryState, n)
		for i := range st.FTQ {
			d.ftqEntry(&st.FTQ[i])
		}
	}
	d.endSection(secFTQ, end)
	end = d.section(secIFU)
	if d.bool() {
		st.IFU = &FTQEntryState{}
		d.ftqEntry(st.IFU)
	}
	d.endSection(secIFU, end)
	end = d.section(secDecodeQ)
	n = d.count(8)
	if n > 0 {
		st.DecodeQ = make([]UopState, n)
		for i := range st.DecodeQ {
			d.uop(&st.DecodeQ[i])
		}
	}
	d.endSection(secDecodeQ, end)
	end = d.section(secROB)
	n = d.count(8)
	if n > 0 {
		st.ROB.Uops = make([]UopState, n)
		for i := range st.ROB.Uops {
			d.uop(&st.ROB.Uops[i])
		}
	}
	st.ROB.Stats.Pushed = d.uv()
	st.ROB.Stats.Retired = d.uv()
	st.ROB.Stats.Squashed = d.uv()
	d.endSection(secROB, end)
	end = d.section(secPQ)
	d.queue(&st.PQ)
	d.endSection(secPQ, end)
	end = d.section(secPrefetcher)
	d.prefetcher(&st.Prefetcher)
	d.endSection(secPrefetcher, end)
}

// ---------------------------------------------------------------------------
// Per-struct codecs, each pair in field declaration order.

func (e *encoder) core(c *CoreState) {
	e.sv(c.Now)
	e.uv(c.Seq)
	e.uv(c.Retired)
	e.bool(c.HasResteer)
	e.sv(c.ResteerAt)
	e.addr(c.ResteerTarget)
	e.addr(c.ResteerTrigger)
	e.u8(c.ResteerCause)
	e.sv(c.IAGResumeAt)
	e.addr(c.ShadowTrigger)
	e.bool(c.ShadowWasReturn)
	e.vi(c.ShadowLeft)
	e.addr(c.LastTakenBlock)
	e.addrs(c.Promoted)
	e.addrs(c.FECEver)
	e.addrs(c.FECSet)
	e.uv(uint64(len(c.PFSet)))
	var prev isa.Addr
	for _, p := range c.PFSet {
		e.sv(int64(p.Line - prev))
		prev = p.Line
		e.sv(p.Cycle)
	}
	for _, v := range c.FECReqAge {
		e.uv(v)
	}
	for _, v := range c.FECHolds {
		e.uv(v)
	}
	e.uv(uint64(len(c.FECTrace)))
	for i := range c.FECTrace {
		t := &c.FECTrace[i]
		e.addr(t.Line)
		e.addr(t.Trigger)
		e.vi(t.Starve)
		e.u8(t.Served)
	}
	e.uv(c.SampleEvery)
	e.uv(c.DataRng)
	e.uv(c.PromoRng)
}

func (d *decoder) core(c *CoreState) {
	c.Now = d.sv()
	c.Seq = d.uv()
	c.Retired = d.uv()
	c.HasResteer = d.bool()
	c.ResteerAt = d.sv()
	c.ResteerTarget = d.addr()
	c.ResteerTrigger = d.addr()
	c.ResteerCause = d.u8()
	c.IAGResumeAt = d.sv()
	c.ShadowTrigger = d.addr()
	c.ShadowWasReturn = d.bool()
	c.ShadowLeft = d.vi()
	c.LastTakenBlock = d.addr()
	c.Promoted = d.addrs()
	c.FECEver = d.addrs()
	c.FECSet = d.addrs()
	if n := d.count(2); n > 0 {
		c.PFSet = make([]PFSetEntry, n)
		var prev isa.Addr
		for i := range c.PFSet {
			prev += isa.Addr(d.sv())
			c.PFSet[i].Line = prev
			c.PFSet[i].Cycle = d.sv()
		}
	}
	for i := range c.FECReqAge {
		c.FECReqAge[i] = d.uv()
	}
	for i := range c.FECHolds {
		c.FECHolds[i] = d.uv()
	}
	if n := d.count(4); n > 0 {
		c.FECTrace = make([]FECInstanceState, n)
		for i := range c.FECTrace {
			t := &c.FECTrace[i]
			t.Line = d.addr()
			t.Trigger = d.addr()
			t.Starve = d.vi()
			t.Served = d.u8()
		}
	}
	c.SampleEvery = d.uv()
	c.DataRng = d.uv()
	c.PromoRng = d.uv()
}

func (e *encoder) registry(r *RegistryState) {
	e.uv(uint64(len(r.Counters)))
	for i := range r.Counters {
		e.str(r.Counters[i].Name)
		e.uv(r.Counters[i].Value)
	}
	e.uv(uint64(len(r.Gauges)))
	for i := range r.Gauges {
		e.str(r.Gauges[i].Name)
		e.f64(r.Gauges[i].Value)
	}
	e.uv(uint64(len(r.Histograms)))
	for i := range r.Histograms {
		h := &r.Histograms[i]
		e.str(h.Name)
		e.u64d(h.Counts)
		e.uv(h.Total)
		e.f64(h.Sum)
	}
}

func (d *decoder) registry(r *RegistryState) {
	if n := d.count(2); n > 0 {
		r.Counters = make([]NamedCounter, n)
		for i := range r.Counters {
			r.Counters[i].Name = d.str()
			r.Counters[i].Value = d.uv()
		}
	}
	if n := d.count(2); n > 0 {
		r.Gauges = make([]NamedGauge, n)
		for i := range r.Gauges {
			r.Gauges[i].Name = d.str()
			r.Gauges[i].Value = d.f64()
		}
	}
	if n := d.count(2); n > 0 {
		r.Histograms = make([]HistogramState, n)
		for i := range r.Histograms {
			h := &r.Histograms[i]
			h.Name = d.str()
			h.Counts = d.u64d()
			h.Total = d.uv()
			h.Sum = d.f64()
		}
	}
}

func (e *encoder) cache(c *CacheState) {
	e.vi(c.Sets)
	e.vi(c.Ways)
	e.u64d(c.Tag)
	e.u32s(c.LRU)
	e.i64d(c.ReadyAt)
	e.raw(c.Valid)
	e.raw(c.Priority)
	e.raw(c.Prefetched)
	e.uv(uint64(c.Tick))
	e.i64d(c.Inflight)
	e.sv(c.InflightMin)
	e.cacheStats(&c.Stats)
	e.raw(c.Owner)
	e.raw(c.InflightOwner)
	e.uv(uint64(len(c.Owners)))
	for i := range c.Owners {
		o := &c.Owners[i]
		e.uv(o.Fills)
		e.uv(o.MSHRSteals)
		e.uv(o.DelayedFills)
		e.uv(o.DelayCycles)
		e.uv(o.SpecDropped)
		e.uv(o.CrossEvictionsSuffered)
		e.uv(o.CrossEvictionsCaused)
	}
}

func (d *decoder) cache(c *CacheState) {
	c.Sets = d.vi()
	c.Ways = d.vi()
	c.Tag = d.u64d()
	c.LRU = d.u32s()
	c.ReadyAt = d.i64d()
	c.Valid = Bitmask(d.raw())
	c.Priority = Bitmask(d.raw())
	c.Prefetched = Bitmask(d.raw())
	c.Tick = d.u32()
	c.Inflight = d.i64d()
	c.InflightMin = d.sv()
	d.cacheStats(&c.Stats)
	c.Owner = d.raw()
	c.InflightOwner = d.raw()
	if n := d.count(7); n > 0 {
		c.Owners = make([]OwnerStats, n)
		for i := range c.Owners {
			o := &c.Owners[i]
			o.Fills = d.uv()
			o.MSHRSteals = d.uv()
			o.DelayedFills = d.uv()
			o.DelayCycles = d.uv()
			o.SpecDropped = d.uv()
			o.CrossEvictionsSuffered = d.uv()
			o.CrossEvictionsCaused = d.uv()
		}
	}
}

func (e *encoder) cacheStats(s *CacheStats) {
	e.uv(s.Accesses)
	e.uv(s.Misses)
	e.uv(s.InstMisses)
	e.uv(s.DataMisses)
	e.uv(s.LateHits)
	e.uv(s.Fills)
	e.uv(s.PrefetchFills)
	e.uv(s.UsefulPrefetches)
	e.uv(s.LatePrefetches)
	e.uv(s.UselessPrefetches)
	e.uv(s.Evictions)
}

func (d *decoder) cacheStats(s *CacheStats) {
	s.Accesses = d.uv()
	s.Misses = d.uv()
	s.InstMisses = d.uv()
	s.DataMisses = d.uv()
	s.LateHits = d.uv()
	s.Fills = d.uv()
	s.PrefetchFills = d.uv()
	s.UsefulPrefetches = d.uv()
	s.LatePrefetches = d.uv()
	s.UselessPrefetches = d.uv()
	s.Evictions = d.uv()
}

func (e *encoder) bpu(b *BPUState) {
	t := &b.TAGE
	e.i8s(t.Base)
	e.uv(uint64(len(t.Tables)))
	for _, tbl := range t.Tables {
		e.uv(uint64(len(tbl)))
		for _, en := range tbl {
			e.uv(uint64(en.Tag))
			e.u8(byte(en.Ctr))
			e.u8(en.Useful)
		}
	}
	e.bools(t.HistBits)
	e.vi(t.HistHead)
	e.u32s(t.IdxFold)
	e.u32s(t.TagFold)
	e.u32s(t.Tg2Fold)
	e.u8(byte(t.UseAltOnNa))
	e.uv(t.AllocSeed)

	it := &b.ITTAGE
	e.addrs(it.Base)
	e.uv(uint64(len(it.Tables)))
	for _, tbl := range it.Tables {
		e.uv(uint64(len(tbl)))
		for _, en := range tbl {
			e.uv(uint64(en.Tag))
			e.addr(en.Target)
			e.u8(byte(en.Ctr))
			e.u8(en.Useful)
		}
	}
	e.bools(it.HistBits)
	e.vi(it.HistHead)
	e.u32s(it.IdxFold)
	e.u32s(it.TagFold)
	e.uv(it.AllocSeed)

	bt := &b.BTB
	e.vi(bt.Sets)
	e.vi(bt.Ways)
	e.uv(uint64(len(bt.Entries)))
	var prevTag uint64
	var prevTgt isa.Addr
	for i := range bt.Entries {
		en := &bt.Entries[i]
		e.bool(en.Valid)
		e.sv(int64(en.Tag - prevTag))
		prevTag = en.Tag
		e.sv(int64(en.Target - prevTgt))
		prevTgt = en.Target
		e.u8(byte(en.Kind))
		e.uv(uint64(en.LRU))
	}
	e.uv(uint64(bt.Tick))
	e.uv(bt.Lookups)
	e.uv(bt.Hits)

	e.addrs(b.RAS.Entries)
	e.vi(b.RAS.Top)
	e.vi(b.RAS.Depth)

	s := &b.Stats
	e.uv(s.CondBranches)
	e.uv(s.CondMispredict)
	e.uv(s.BTBLookups)
	e.uv(s.BTBMissTaken)
	e.uv(s.IndBranches)
	e.uv(s.IndMispredict)
	e.uv(s.Returns)
	e.uv(s.RetMispredict)
}

func (d *decoder) bpu(b *BPUState) {
	t := &b.TAGE
	t.Base = d.i8s()
	if n := d.count(1); n > 0 {
		t.Tables = make([][]TAGEEntry, n)
		for ti := range t.Tables {
			if m := d.count(3); m > 0 {
				tbl := make([]TAGEEntry, m)
				for i := range tbl {
					tbl[i].Tag = d.u16()
					tbl[i].Ctr = int8(d.u8())
					tbl[i].Useful = d.u8()
				}
				t.Tables[ti] = tbl
			}
		}
	}
	t.HistBits = d.boolsOut()
	t.HistHead = d.vi()
	t.IdxFold = d.u32s()
	t.TagFold = d.u32s()
	t.Tg2Fold = d.u32s()
	t.UseAltOnNa = int8(d.u8())
	t.AllocSeed = d.uv()

	it := &b.ITTAGE
	it.Base = d.addrs()
	if n := d.count(1); n > 0 {
		it.Tables = make([][]ITTAGEEntry, n)
		for ti := range it.Tables {
			if m := d.count(4); m > 0 {
				tbl := make([]ITTAGEEntry, m)
				for i := range tbl {
					tbl[i].Tag = d.u16()
					tbl[i].Target = d.addr()
					tbl[i].Ctr = int8(d.u8())
					tbl[i].Useful = d.u8()
				}
				it.Tables[ti] = tbl
			}
		}
	}
	it.HistBits = d.boolsOut()
	it.HistHead = d.vi()
	it.IdxFold = d.u32s()
	it.TagFold = d.u32s()
	it.AllocSeed = d.uv()

	bt := &b.BTB
	bt.Sets = d.vi()
	bt.Ways = d.vi()
	if n := d.count(5); n > 0 {
		bt.Entries = make([]BTBEntryState, n)
		var prevTag uint64
		var prevTgt isa.Addr
		for i := range bt.Entries {
			en := &bt.Entries[i]
			en.Valid = d.bool()
			prevTag += uint64(d.sv())
			en.Tag = prevTag
			prevTgt += isa.Addr(d.sv())
			en.Target = prevTgt
			en.Kind = isa.BranchKind(d.u8())
			en.LRU = d.u32()
		}
	}
	bt.Tick = d.u32()
	bt.Lookups = d.uv()
	bt.Hits = d.uv()

	b.RAS.Entries = d.addrs()
	b.RAS.Top = d.vi()
	b.RAS.Depth = d.vi()

	s := &b.Stats
	s.CondBranches = d.uv()
	s.CondMispredict = d.uv()
	s.BTBLookups = d.uv()
	s.BTBMissTaken = d.uv()
	s.IndBranches = d.uv()
	s.IndMispredict = d.uv()
	s.Returns = d.uv()
	s.RetMispredict = d.uv()
}

func (e *encoder) iag(g *IAGState) {
	e.source(&g.Oracle)
	if g.Wrong == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.source(g.Wrong)
	}
	e.bool(g.PendingMispredict)
}

func (d *decoder) iag(g *IAGState) {
	d.source(&g.Oracle)
	if d.bool() {
		g.Wrong = &SourceState{}
		d.source(g.Wrong)
	}
	g.PendingMispredict = d.bool()
}

func (e *encoder) source(s *SourceState) {
	e.str(s.Kind)
	if s.Walker == nil {
		e.bool(false)
	} else {
		e.bool(true)
		w := s.Walker
		e.uv(w.Rng)
		e.addrs(w.Stack)
		e.u16s(w.LoopCnt)
		e.vi(w.CurBlock)
		e.vi(w.InstIdx)
		e.addr(w.LostPC)
		e.bool(w.WrongPath)
		e.vi(w.DispatchCenter)
		e.uv(w.Count)
	}
	if s.ChampSim == nil {
		e.bool(false)
	} else {
		e.bool(true)
		c := s.ChampSim
		e.uv(c.Count)
		e.bool(c.Primed)
		e.uv(uint64(len(c.Decode)))
		prevSlot := 0
		for i := range c.Decode {
			en := &c.Decode[i]
			e.sv(int64(en.Slot - prevSlot))
			prevSlot = en.Slot
			e.addr(en.PC)
			e.u8(en.Size)
			e.u8(en.Kind)
			e.bool(en.Taken)
			e.addr(en.Target)
		}
		e.addrs(c.RAS)
		e.addr(c.PC)
	}
}

func (d *decoder) source(s *SourceState) {
	s.Kind = d.str()
	if d.bool() {
		w := &WalkerState{}
		w.Rng = d.uv()
		w.Stack = d.addrs()
		w.LoopCnt = d.u16s()
		w.CurBlock = d.vi()
		w.InstIdx = d.vi()
		w.LostPC = d.addr()
		w.WrongPath = d.bool()
		w.DispatchCenter = d.vi()
		w.Count = d.uv()
		s.Walker = w
	}
	if d.bool() {
		c := &ChampSimState{}
		c.Count = d.uv()
		c.Primed = d.bool()
		if n := d.count(6); n > 0 {
			c.Decode = make([]ChampSimDecodeEntry, n)
			prevSlot := 0
			for i := range c.Decode {
				en := &c.Decode[i]
				prevSlot += d.vi()
				en.Slot = prevSlot
				en.PC = d.addr()
				en.Size = d.u8()
				en.Kind = d.u8()
				en.Taken = d.bool()
				en.Target = d.addr()
			}
		}
		c.RAS = d.addrs()
		c.PC = d.addr()
		s.ChampSim = c
	}
}

func (e *encoder) episode(ep *EpisodeState) {
	e.addr(ep.Line)
	e.bool(ep.WrongPath)
	e.bool(ep.Missed)
	e.u8(ep.ServedBy)
	e.sv(ep.FetchCycle)
	e.sv(ep.DoneCycle)
	e.vi(ep.Starve)
	e.bool(ep.BackendEmpty)
	e.bool(ep.WasPrefetch)
	e.bool(ep.Processed)
	e.addr(ep.ResteerTrigger)
	e.bool(ep.ResteerWasReturn)
	e.sv(int64(ep.Refs))
}

func (d *decoder) episode(ep *EpisodeState) {
	ep.Line = d.addr()
	ep.WrongPath = d.bool()
	ep.Missed = d.bool()
	ep.ServedBy = d.u8()
	ep.FetchCycle = d.sv()
	ep.DoneCycle = d.sv()
	ep.Starve = d.vi()
	ep.BackendEmpty = d.bool()
	ep.WasPrefetch = d.bool()
	ep.Processed = d.bool()
	ep.ResteerTrigger = d.addr()
	ep.ResteerWasReturn = d.bool()
	ep.Refs = int32(d.sv())
}

func (e *encoder) inst(in *isa.Inst) {
	e.addr(in.PC)
	e.u8(in.Size)
	e.u8(byte(in.Kind))
	e.bool(in.Taken)
	e.addr(in.Target)
}

func (d *decoder) inst(in *isa.Inst) {
	in.PC = d.addr()
	in.Size = d.u8()
	in.Kind = isa.BranchKind(d.u8())
	in.Taken = d.bool()
	in.Target = d.addr()
}

func (e *encoder) ftqEntry(f *FTQEntryState) {
	e.uv(uint64(len(f.Insts)))
	for i := range f.Insts {
		e.inst(&f.Insts[i])
	}
	e.addr(f.Start)
	e.addrs(f.Lines)
	e.bool(f.WrongPath)
	e.bool(f.HasBranch)
	e.bool(f.PredTaken)
	e.addr(f.PredTarget)
	e.bool(f.PredBTBHit)
	e.bool(f.Mispredict)
	e.u8(f.Cause)
	e.bool(f.ResolveAtDecode)
	e.addr(f.CorrectTarget)
	e.addr(f.ShadowTrigger)
	e.bool(f.ShadowWasReturn)
	e.ints(f.Episodes)
	e.sv(f.ReadyAt)
}

func (d *decoder) ftqEntry(f *FTQEntryState) {
	if n := d.count(5); n > 0 {
		f.Insts = make([]isa.Inst, n)
		for i := range f.Insts {
			d.inst(&f.Insts[i])
		}
	}
	f.Start = d.addr()
	f.Lines = d.addrs()
	f.WrongPath = d.bool()
	f.HasBranch = d.bool()
	f.PredTaken = d.bool()
	f.PredTarget = d.addr()
	f.PredBTBHit = d.bool()
	f.Mispredict = d.bool()
	f.Cause = d.u8()
	f.ResolveAtDecode = d.bool()
	f.CorrectTarget = d.addr()
	f.ShadowTrigger = d.addr()
	f.ShadowWasReturn = d.bool()
	f.Episodes = d.intsOut()
	f.ReadyAt = d.sv()
}

func (e *encoder) uop(u *UopState) {
	e.inst(&u.Inst)
	e.uv(u.Seq)
	e.bool(u.WrongPath)
	e.vi(u.Episode)
	e.bool(u.Mispredict)
	e.bool(u.ResolveAtDecode)
	e.u8(u.Cause)
	e.addr(u.CorrectTarget)
	e.addr(u.TriggerBlock)
	e.bool(u.IsMemOp)
	e.addr(u.DataLine)
	e.sv(u.DoneAt)
	e.sv(u.AvailableAt)
}

func (d *decoder) uop(u *UopState) {
	d.inst(&u.Inst)
	u.Seq = d.uv()
	u.WrongPath = d.bool()
	u.Episode = d.vi()
	u.Mispredict = d.bool()
	u.ResolveAtDecode = d.bool()
	u.Cause = d.u8()
	u.CorrectTarget = d.addr()
	u.TriggerBlock = d.addr()
	u.IsMemOp = d.bool()
	u.DataLine = d.addr()
	u.DoneAt = d.sv()
	u.AvailableAt = d.sv()
}

func (e *encoder) requests(rs []RequestState) {
	e.uv(uint64(len(rs)))
	var prev isa.Addr
	for i := range rs {
		e.sv(int64(rs[i].Line - prev))
		prev = rs[i].Line
		e.u8(rs[i].Trigger)
	}
}

func (d *decoder) requests() []RequestState {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	out := make([]RequestState, n)
	var prev isa.Addr
	for i := range out {
		prev += isa.Addr(d.sv())
		out[i].Line = prev
		out[i].Trigger = d.u8()
	}
	return out
}

func (e *encoder) queue(q *QueueState) {
	e.requests(q.Entries)
	s := &q.Stats
	e.uv(s.Enqueued)
	e.uv(s.DroppedQueueFull)
	e.uv(s.Issued)
	e.uv(s.DroppedPresent)
	e.uv(s.DroppedMSHR)
	for _, v := range s.ByTrigger {
		e.uv(v)
	}
}

func (d *decoder) queue(q *QueueState) {
	q.Entries = d.requests()
	s := &q.Stats
	s.Enqueued = d.uv()
	s.DroppedQueueFull = d.uv()
	s.Issued = d.uv()
	s.DroppedPresent = d.uv()
	s.DroppedMSHR = d.uv()
	for i := range s.ByTrigger {
		s.ByTrigger[i] = d.uv()
	}
}

func (e *encoder) prefetcher(p *PrefetcherState) {
	e.str(p.Kind)
	if p.PDIP == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.pdip(p.PDIP)
	}
	if p.EIP == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.eip(p.EIP)
	}
	if p.RDIP == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.rdip(p.RDIP)
	}
	if p.FNLMMA == nil {
		e.bool(false)
	} else {
		e.bool(true)
		e.fnlmma(p.FNLMMA)
	}
	if p.NextLine == nil {
		e.bool(false)
	} else {
		e.bool(true)
		nl := p.NextLine
		e.vi(nl.Degree)
		e.uv(nl.Emitted)
		e.requests(nl.Pending)
	}
}

func (d *decoder) prefetcher(p *PrefetcherState) {
	p.Kind = d.str()
	if d.bool() {
		p.PDIP = d.pdip()
	}
	if d.bool() {
		p.EIP = d.eip()
	}
	if d.bool() {
		p.RDIP = d.rdip()
	}
	if d.bool() {
		p.FNLMMA = d.fnlmma()
	}
	if d.bool() {
		nl := &NextLineState{}
		nl.Degree = d.vi()
		nl.Emitted = d.uv()
		nl.Pending = d.requests()
		p.NextLine = nl
	}
}

func (e *encoder) pdip(p *PDIPState) {
	// Entry and target totals lead the sets so the decoder can slab-
	// allocate the whole table in two makes instead of one per set/entry
	// (the PDIP table decodes as tens of thousands of tiny slices
	// otherwise).
	var totE, totT uint64
	for _, set := range p.Sets {
		totE += uint64(len(set))
		for i := range set {
			totT += uint64(len(set[i].Targets))
		}
	}
	e.uv(uint64(len(p.Sets)))
	e.uv(totE)
	e.uv(totT)
	for _, set := range p.Sets {
		e.uv(uint64(len(set)))
		for i := range set {
			en := &set[i]
			e.bool(en.Valid)
			e.uv(uint64(en.Tag))
			e.uv(uint64(en.LRU))
			e.uv(uint64(len(en.Targets)))
			for j := range en.Targets {
				t := &en.Targets[j]
				e.bool(t.Valid)
				e.addr(t.Base)
				e.u8(t.Mask)
				e.u8(t.Trig)
				e.uv(uint64(t.LRU))
			}
		}
	}
	e.uv(uint64(p.Tick))
	e.uv(p.Rng)
	s := &p.Stats
	e.uv(s.InsertAttempts)
	e.uv(s.InsertFiltered)
	e.uv(s.InsertNoTrigger)
	e.uv(s.InsertReturnSkipped)
	e.uv(s.Inserted)
	e.uv(s.MaskMerged)
	e.uv(s.Lookups)
	e.uv(s.Hits)
}

func (d *decoder) pdip() *PDIPState {
	p := &PDIPState{}
	n := d.count(1)
	totE := d.count(4)
	totT := d.count(5)
	slabE := make([]PDIPEntryState, totE)
	slabT := make([]PDIPTargetState, totT)
	if n > 0 {
		p.Sets = make([][]PDIPEntryState, n)
		for si := range p.Sets {
			m := d.count(4)
			if m > len(slabE) {
				d.fail("pdip entry count exceeds declared total")
			}
			if m == 0 {
				continue
			}
			set := slabE[:m:m]
			slabE = slabE[m:]
			for i := range set {
				en := &set[i]
				en.Valid = d.bool()
				en.Tag = d.u32()
				en.LRU = d.u32()
				k := d.count(5)
				if k > len(slabT) {
					d.fail("pdip target count exceeds declared total")
				}
				if k > 0 {
					en.Targets = slabT[:k:k]
					slabT = slabT[k:]
					for j := range en.Targets {
						t := &en.Targets[j]
						t.Valid = d.bool()
						t.Base = d.addr()
						t.Mask = d.u8()
						t.Trig = d.u8()
						t.LRU = d.u32()
					}
				}
			}
			p.Sets[si] = set
		}
	}
	if len(slabE) != 0 || len(slabT) != 0 {
		d.fail("pdip declared totals exceed actual entries")
	}
	p.Tick = d.u32()
	p.Rng = d.uv()
	s := &p.Stats
	s.InsertAttempts = d.uv()
	s.InsertFiltered = d.uv()
	s.InsertNoTrigger = d.uv()
	s.InsertReturnSkipped = d.uv()
	s.Inserted = d.uv()
	s.MaskMerged = d.uv()
	s.Lookups = d.uv()
	s.Hits = d.uv()
	return p
}

func (e *encoder) eip(p *EIPState) {
	e.uv(uint64(len(p.Hist)))
	var prev isa.Addr
	for i := range p.Hist {
		e.sv(int64(p.Hist[i].Line - prev))
		prev = p.Hist[i].Line
		e.sv(p.Hist[i].Cycle)
	}
	e.vi(p.Head)
	e.vi(p.Size)
	e.uv(uint64(len(p.Sets)))
	for _, set := range p.Sets {
		e.uv(uint64(len(set)))
		for i := range set {
			en := &set[i]
			e.bool(en.Valid)
			e.uv(uint64(en.Tag))
			e.uv(uint64(en.LRU))
			e.addrs(en.Dsts)
		}
	}
	e.uv(uint64(len(p.Anal)))
	prev = 0
	for i := range p.Anal {
		e.sv(int64(p.Anal[i].Src - prev))
		prev = p.Anal[i].Src
		e.addrs(p.Anal[i].Dsts)
	}
	e.uv(uint64(p.Tick))
	s := &p.Stats
	e.uv(s.Entangled)
	e.uv(s.NoSource)
	e.uv(s.Lookups)
	e.uv(s.Hits)
}

func (d *decoder) eip() *EIPState {
	p := &EIPState{}
	if n := d.count(2); n > 0 {
		p.Hist = make([]EIPHistEntry, n)
		var prev isa.Addr
		for i := range p.Hist {
			prev += isa.Addr(d.sv())
			p.Hist[i].Line = prev
			p.Hist[i].Cycle = d.sv()
		}
	}
	p.Head = d.vi()
	p.Size = d.vi()
	if n := d.count(1); n > 0 {
		p.Sets = make([][]EIPEntryState, n)
		for si := range p.Sets {
			if m := d.count(4); m > 0 {
				set := make([]EIPEntryState, m)
				for i := range set {
					en := &set[i]
					en.Valid = d.bool()
					en.Tag = d.u32()
					en.LRU = d.u32()
					en.Dsts = d.addrs()
				}
				p.Sets[si] = set
			}
		}
	}
	if n := d.count(2); n > 0 {
		p.Anal = make([]EIPAnalEntry, n)
		var prev isa.Addr
		for i := range p.Anal {
			prev += isa.Addr(d.sv())
			p.Anal[i].Src = prev
			p.Anal[i].Dsts = d.addrs()
		}
	}
	p.Tick = d.u32()
	s := &p.Stats
	s.Entangled = d.uv()
	s.NoSource = d.uv()
	s.Lookups = d.uv()
	s.Hits = d.uv()
	return p
}

func (e *encoder) rdip(p *RDIPState) {
	e.uv(uint64(len(p.Sets)))
	for _, set := range p.Sets {
		e.uv(uint64(len(set)))
		for i := range set {
			en := &set[i]
			e.bool(en.Valid)
			e.uv(uint64(en.Tag))
			e.uv(uint64(en.LRU))
			e.addrs(en.Lines)
		}
	}
	e.uv(uint64(p.Tick))
	e.addrs(p.RAS)
	e.uv(p.Sig)
	e.requests(p.Pending)
	s := &p.Stats
	e.uv(s.ContextSwitches)
	e.uv(s.Recorded)
	e.uv(s.Hits)
}

func (d *decoder) rdip() *RDIPState {
	p := &RDIPState{}
	if n := d.count(1); n > 0 {
		p.Sets = make([][]RDIPEntryState, n)
		for si := range p.Sets {
			if m := d.count(4); m > 0 {
				set := make([]RDIPEntryState, m)
				for i := range set {
					en := &set[i]
					en.Valid = d.bool()
					en.Tag = d.u32()
					en.LRU = d.u32()
					en.Lines = d.addrs()
				}
				p.Sets[si] = set
			}
		}
	}
	p.Tick = d.u32()
	p.RAS = d.addrs()
	p.Sig = d.uv()
	p.Pending = d.requests()
	s := &p.Stats
	s.ContextSwitches = d.uv()
	s.Recorded = d.uv()
	s.Hits = d.uv()
	return p
}

func (e *encoder) fnlmma(p *FNLMMAState) {
	e.raw(p.Worth)
	e.u32s(p.MMATag)
	e.addrs(p.MMADst)
	e.addrs(p.MissRing)
	e.vi(p.MissHead)
	e.requests(p.Pending)
	s := &p.Stats
	e.uv(s.FNLEmitted)
	e.uv(s.MMAEmitted)
	e.uv(s.Trained)
}

func (d *decoder) fnlmma() *FNLMMAState {
	p := &FNLMMAState{}
	p.Worth = d.raw()
	p.MMATag = d.u32s()
	p.MMADst = d.addrs()
	p.MissRing = d.addrs()
	p.MissHead = d.vi()
	p.Pending = d.requests()
	s := &p.Stats
	s.FNLEmitted = d.uv()
	s.MMAEmitted = d.uv()
	s.Trained = d.uv()
	return p
}
