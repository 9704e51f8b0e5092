package champsim

import (
	"fmt"

	"pdip/internal/cfg"
	"pdip/internal/isa"
	"pdip/internal/trace"
)

// dcBits sizes the decode cache: 8192 direct-mapped entries (~0.3 MB),
// bounded regardless of trace length.
const dcBits = 13

// rasDepth bounds the return-address mirror (Table 1-ish: deep enough for
// the workloads' call depth, fixed so forks are O(1) copies).
const rasDepth = 32

// decodeCache is a direct-mapped cache of committed instructions keyed by
// PC, giving the derived wrong path a bounded window into the program:
// wrong-path fetch replays the most recent committed outcome at each PC
// it walks — stale or missing entries degrade to linear fetch, never to
// unbounded state.
type decodeCache struct {
	inst  [1 << dcBits]isa.Inst
	valid [1 << dcBits]bool
}

// slot hashes a PC to its cache index (Fibonacci hashing — PCs are
// 4-ish-byte strided, so low bits alone alias heavily).
func dcSlot(pc isa.Addr) int {
	return int((uint64(pc) * 0x9E3779B97F4A7C15) >> (64 - dcBits))
}

func (c *decodeCache) insert(in isa.Inst) {
	s := dcSlot(in.PC)
	c.inst[s] = in
	c.valid[s] = true
}

func (c *decodeCache) lookup(pc isa.Addr) (isa.Inst, bool) {
	s := dcSlot(pc)
	if !c.valid[s] || c.inst[s].PC != pc {
		return isa.Inst{}, false
	}
	return c.inst[s], true
}

// rasMirror is a fixed-depth circular return-address stack shadowing the
// committed stream's calls and returns; wrong-path forks copy it whole.
type rasMirror struct {
	buf   [rasDepth]isa.Addr
	top   int
	depth int
}

func (m *rasMirror) push(a isa.Addr) {
	m.buf[m.top] = a
	m.top = (m.top + 1) % rasDepth
	if m.depth < rasDepth {
		m.depth++
	}
}

func (m *rasMirror) pop() (isa.Addr, bool) {
	if m.depth == 0 {
		return 0, false
	}
	m.top = (m.top + rasDepth - 1) % rasDepth
	m.depth--
	return m.buf[m.top], true
}

// Source adapts a ChampSim trace onto trace.OracleSource, in one of two
// modes.
//
// Standalone (Open): the decoded stream is the oracle. Wrong paths —
// which a trace cannot record — are derived from a bounded decode cache
// of committed instructions plus a RAS mirror (see Wrong).
//
// Differential (OpenDifferential): the decoded stream is cross-checked
// instruction-by-instruction against a lockstep synthetic walker over the
// generating workload, and the walker's instruction is what the pipeline
// consumes — including wrong-path forks. A run in this mode is
// bit-identical to the direct synthetic run by construction, so any
// decode/encode defect surfaces as a latched Err, not a silently
// different simulation. This is the round-trip test mode.
type Source struct {
	r      *Reader
	shadow *trace.Walker

	// cur is the last record read (the lookahead window: its instruction
	// is emitted when the *next* record supplies the branch target).
	cur    Record
	primed bool
	count  uint64

	dec decodeCache
	ras rasMirror

	// err latches the first replay divergence (differential mode) or
	// stream fault; the simulation keeps running on the shadow stream so
	// the harness can report the mismatch after the run, not panic inside
	// the pipeline.
	err error

	// freeWrong recycles the single wrong-path adapter (pool, not state).
	freeWrong *Wrong
}

// Compile-time conformance.
var (
	_ trace.OracleSource = (*Source)(nil)
	_ trace.Source       = (*Wrong)(nil)
)

// Open opens a trace as a standalone oracle source.
func Open(path string) (*Source, error) {
	r, err := OpenReader(path)
	if err != nil {
		return nil, err
	}
	return &Source{r: r}, nil
}

// OpenDifferential opens a trace in differential mode: decoded records
// are verified against (and the pipeline is fed from) a synthetic walker
// over prog with the given seed — the exact configuration the trace was
// recorded from.
func OpenDifferential(path string, prog *cfg.Program, seed uint64) (*Source, error) {
	r, err := OpenReader(path)
	if err != nil {
		return nil, err
	}
	return &Source{r: r, shadow: trace.New(prog, seed)}, nil
}

// fail latches the first error.
func (s *Source) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// decodeNext decodes the next instruction from the trace, maintaining the
// one-record lookahead that supplies taken-branch targets. A stream fault
// latches Err and degrades to linear fetch so the pipeline stays fed.
func (s *Source) decodeNext() isa.Inst {
	if !s.primed {
		if err := s.r.Next(&s.cur); err != nil {
			s.fail(err)
			return isa.Inst{PC: isa.Addr(s.cur.IP), Size: 4}
		}
		s.primed = true
	}
	var nxt Record
	if err := s.r.Next(&nxt); err != nil {
		s.fail(err)
		in := isa.Inst{PC: isa.Addr(s.cur.IP), Size: 4}
		s.cur.IP += 4
		s.count++
		return in
	}
	in := s.cur.inst(isa.Addr(nxt.IP))
	s.cur = nxt
	s.count++
	return in
}

// Next produces the next committed instruction.
func (s *Source) Next() isa.Inst {
	got := s.decodeNext()
	if s.shadow == nil {
		// Standalone: shadow structures track the committed stream so
		// ForkWrong can derive speculative paths.
		s.dec.insert(got)
		switch got.Kind {
		case isa.DirectCall, isa.IndirectCall:
			s.ras.push(got.FallThrough())
		case isa.Return:
			s.ras.pop()
		}
		return got
	}
	want := s.shadow.Next()
	if s.err == nil {
		// Not-taken branches never encode a target (and never consume
		// one downstream), so Target is compared only when taken.
		if got.PC != want.PC || got.Size != want.Size || got.Kind != want.Kind ||
			got.Taken != want.Taken || (want.Taken && got.Target != want.Target) {
			//lint:ignore allocfree error construction on the replay-divergence path; latched once
			s.err = fmt.Errorf("champsim: replay diverged at instruction %d: decoded %+v, synthetic %+v", s.count-1, got, want)
		}
	}
	return want
}

// AppendRun implements trace.Source, one record step at a time.
func (s *Source) AppendRun(dst []isa.Inst, n int) []isa.Inst { return appendRun(s, dst, n) }

// appendRun appends src's next instructions to dst, one Next at a time,
// up to and including the next branch and at most n of them.
func appendRun[S interface{ Next() isa.Inst }](src S, dst []isa.Inst, n int) []isa.Inst {
	for ; n > 0; n-- {
		in := src.Next()
		dst = append(dst, in)
		if in.Kind.IsBranch() {
			break
		}
	}
	return dst
}

// Count returns how many instructions have been emitted.
func (s *Source) Count() uint64 { return s.count }

// Err returns the first latched replay divergence or stream fault.
func (s *Source) Err() error { return s.err }

// Close releases the trace file.
func (s *Source) Close() error { return s.r.Close() }

// ForkWrong implements trace.OracleSource. Differential mode delegates to
// the shadow walker (wrong paths must match the synthetic run exactly);
// standalone mode hands out the derived wrong-path adapter.
func (s *Source) ForkWrong(free trace.Source, pc isa.Addr) trace.Source {
	if s.shadow != nil {
		return s.shadow.ForkWrong(free, pc)
	}
	w, _ := free.(*Wrong)
	if w == nil || w.src != s {
		if s.freeWrong != nil {
			w = s.freeWrong
			s.freeWrong = nil
		} else {
			//lint:ignore allocfree wrong-path fork pool refill (freeWrong); amortized
			w = &Wrong{src: s}
		}
	}
	w.pc = pc
	w.ras = s.ras
	return w
}

// Wrong is the derived wrong path of a standalone trace source: the trace
// records only the committed stream, so speculative fetch beyond a
// mispredict replays the decode cache's most recent committed outcome at
// each PC it reaches (with its own copy of the RAS mirror for returns)
// and degrades to linear fetch at PCs the committed stream has not
// visited — bounded state, deterministic, and plausibly wrong in the same
// way real wrong paths are: mostly-stale right answers.
type Wrong struct {
	src *Source
	pc  isa.Addr
	ras rasMirror
}

// AppendRun implements trace.Source, one step at a time.
func (w *Wrong) AppendRun(dst []isa.Inst, n int) []isa.Inst { return appendRun(w, dst, n) }

// Next produces the next instruction of the derived wrong path.
func (w *Wrong) Next() isa.Inst {
	in, ok := w.src.dec.lookup(w.pc)
	if !ok {
		in = isa.Inst{PC: w.pc, Size: 4}
		w.pc += 4
		return in
	}
	switch {
	case in.Kind == isa.Return:
		if t, ok := w.ras.pop(); ok && t != 0 {
			in.Target = t
		} else if in.Target == 0 {
			in.Target = in.FallThrough()
		}
		w.pc = in.Target
	case in.Taken && in.Target != 0:
		if in.Kind == isa.DirectCall || in.Kind == isa.IndirectCall {
			w.ras.push(in.FallThrough())
		}
		w.pc = in.Target
	default:
		// Not-taken (or a taken record with no recoverable target):
		// fall through.
		in.Taken = in.Taken && in.Target != 0
		if !in.Taken {
			in.Target = 0
		}
		w.pc = in.FallThrough()
	}
	return in
}
