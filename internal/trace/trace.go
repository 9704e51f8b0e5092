// Package trace turns a static synthetic program (package cfg) into dynamic
// instruction streams.
//
// Two kinds of walkers exist:
//
//   - The oracle walker produces the committed (architecturally correct)
//     path: a seeded random walk over the CFG honouring branch biases,
//     deterministic loop trip counts, call/return semantics, and indirect
//     target selection. The core simulator compares BPU predictions against
//     this stream to detect mispredicts.
//
//   - A wrong-path walker is forked at a mispredicted target and produces
//     the speculative path the front-end actually fetches until the resteer:
//     it walks the CFG from an arbitrary address with its own RNG and an
//     empty call stack, degrading to a linear byte stream if the address
//     lands outside any block (e.g. alignment padding), exactly like a real
//     front-end chasing a bogus target.
package trace

import (
	"pdip/internal/cfg"
	"pdip/internal/invariant"
	"pdip/internal/isa"
	"pdip/internal/recycle"
	"pdip/internal/rng"
)

// maxCallDepth bounds the simulated call stack: calls at the cap bounce off
// the callee's return block (see capCall), so runaway recursion unwinds
// instead of trapping the walk. The cap is kept below the RAS depth (32):
// real server code rarely overflows the RAS, and an overflowing cap would
// otherwise turn every deep unwind into a burst of return mispredicts that
// dominates the resteer mix.
const maxCallDepth = 28

// Walker produces a dynamic instruction stream over a program.
type Walker struct {
	prog *cfg.Program
	r    *rng.RNG

	// stack holds the return block of each call in progress. A call
	// always ends its block and a function's last block returns, so a
	// call returns to the start of the block after its own.
	stack []int32
	// loopCnt tracks per-block loop-iteration counters (indexed by block
	// ID) so loop back-edges have deterministic, learnable trip counts.
	loopCnt []uint16

	// cur is the ID of the current block, -1 when "lost" (walking
	// addresses that belong to no block, only possible on wrong paths).
	cur int32
	// instIdx is the index of the next instruction within cur.
	instIdx int
	// lostPC is the next PC when lost.
	lostPC isa.Addr

	// wrongPath marks forked walkers (affects empty-stack return policy:
	// a lost wrong path re-enters code at a pseudo-random function).
	wrongPath bool

	// dispatchCenter is the slowly drifting function index around which
	// top-level dispatch (empty-stack returns) lands — the walk's phase
	// center. Drift and occasional jumps model request-type locality.
	dispatchCenter int

	// count is the number of instructions produced.
	count uint64
}

// New returns an oracle walker starting at the program entry.
func New(prog *cfg.Program, seed uint64) *Walker {
	return &Walker{
		prog:    prog,
		r:       rng.New(seed),
		loopCnt: recycle.Make[[]uint16](len(prog.Blocks)),
		cur:     int32(prog.Entry),
	}
}

// Release hands the walker's loop counters to the recycler
// (internal/recycle) and drops them; the walker must not be used
// afterwards.
func (w *Walker) Release() {
	recycle.Free(w.loopCnt)
	w.loopCnt = nil
}

// Fork creates a wrong-path walker positioned at pc. The fork has its own
// RNG (salted by pc) and a copy of the parent's call stack — the hardware
// front-end speculates through returns with the real RAS, so a wrong path
// that reaches a return rejoins the correct caller. The parent is
// unaffected.
func (w *Walker) Fork(pc isa.Addr) *Walker {
	// Forks carry no loop counters (loopCnt nil): loop back-edges are
	// sampled probabilistically instead. Wrong paths are short-lived, and
	// this avoids allocating a per-block array on every mispredict.
	//lint:ignore allocfree cold fork path: ForkInto reuses dst storage; fresh fork on first mispredict only
	f := &Walker{
		prog:           w.prog,
		r:              w.r.Fork(uint64(pc)),
		stack:          append([]int32(nil), w.stack...),
		dispatchCenter: w.dispatchCenter,
		wrongPath:      true,
	}
	f.jumpTo(pc)
	return f
}

// ForkInto behaves exactly like Fork but reuses dst's storage (call-stack
// backing and RNG) when dst is non-nil, so the front-end can recycle one
// wrong-path walker across mispredicts instead of allocating per fork. The
// produced instruction stream is identical to Fork's.
func (w *Walker) ForkInto(dst *Walker, pc isa.Addr) *Walker {
	if dst == nil || dst == w {
		return w.Fork(pc)
	}
	r := w.r.ForkInto(dst.r, uint64(pc))
	stack := append(dst.stack[:0], w.stack...)
	*dst = Walker{
		prog:           w.prog,
		r:              r,
		stack:          stack,
		dispatchCenter: w.dispatchCenter,
		wrongPath:      true,
	}
	dst.jumpTo(pc)
	return dst
}

// Count returns the number of instructions produced so far.
func (w *Walker) Count() uint64 { return w.count }

// Depth returns the current call-stack depth.
func (w *Walker) Depth() int { return len(w.stack) }

// jumpTo repositions the walker at pc, resolving the containing block and
// instruction index, or entering lost mode.
func (w *Walker) jumpTo(pc isa.Addr) {
	id := w.prog.BlockIndex(pc)
	if id < 0 {
		w.cur = -1
		w.lostPC = pc
		return
	}
	// Locate the instruction boundary containing pc. Wrong-path targets
	// may land mid-instruction; snap to the containing instruction
	// (BlockIndex found pc before the block's end).
	blk := &w.prog.Blocks[id]
	w.cur, w.instIdx = int32(id), 0
	a := blk.Addr
	for _, sz := range w.prog.InstSizes(blk) {
		if a += isa.Addr(sz); pc < a {
			return
		}
		w.instIdx++
	}
}

// Next produces the next instruction on this walker's path, including its
// actual control-flow outcome, and advances past it: a run of one.
func (w *Walker) Next() isa.Inst {
	var one [1]isa.Inst
	return w.AppendRun(one[:0], 1)[0]
}

// AppendRun implements Source: it appends the next instructions on the
// walker's path to dst, at most n of them, up to and including the next
// branch. A block's straight-line instructions go out in one loop; its
// terminator goes through branch, so the walk makes the RNG draws of n
// Next calls in the same order.
func (w *Walker) AppendRun(dst []isa.Inst, n int) []isa.Inst {
	for n > 0 {
		if w.cur < 0 {
			dst = append(dst, w.lost())
			n--
			continue
		}
		blk := &w.prog.Blocks[w.cur]
		sizes := w.prog.InstSizes(blk)
		pc := blk.Addr
		for _, sz := range sizes[:w.instIdx] {
			pc += isa.Addr(sz)
		}
		// Straight-line instructions: every one of a fall-through block,
		// all but the final branch of any other.
		plain := len(sizes)
		if blk.Term.Kind != isa.NotBranch {
			plain--
		}
		end := min(plain, w.instIdx+n)
		for _, sz := range sizes[w.instIdx:end] {
			dst = append(dst, isa.Inst{PC: pc, Size: sz, Kind: isa.NotBranch})
			pc += isa.Addr(sz)
		}
		n -= end - w.instIdx
		w.count += uint64(end - w.instIdx)
		w.instIdx = end
		switch {
		case end == len(sizes):
			w.advanceFallThrough()
		case n > 0:
			return append(dst, w.branch(blk, pc, sizes[end]))
		}
	}
	return dst
}

// lost produces the next instruction of a lost walk: a plain 4-byte
// instruction at lostPC.
func (w *Walker) lost() isa.Inst {
	w.count++
	in := isa.Inst{PC: w.lostPC, Size: 4, Kind: isa.NotBranch}
	w.lostPC += 4
	// A lost wrong path may stumble back into real code.
	w.jumpTo(w.lostPC)
	return in
}

// branch produces blk's terminator, the branch of the given size at pc,
// with its sampled outcome, and moves the walker to its successor.
func (w *Walker) branch(blk *cfg.Block, pc isa.Addr, size uint8) isa.Inst {
	w.count++
	in := isa.Inst{PC: pc, Size: size, Kind: blk.Term.Kind}
	switch blk.Term.Kind {
	case isa.CondDirect:
		if blk.Term.LoopTrip > 0 {
			if w.loopCnt == nil {
				// Wrong-path fork: sample the steady-state taken rate.
				t := float64(blk.Term.LoopTrip)
				in.Taken = w.r.Bool((t - 1) / t)
			} else if cnt := w.loopCnt[w.cur]; cnt+1 < blk.Term.LoopTrip {
				in.Taken = true
				w.loopCnt[w.cur] = cnt + 1
			} else {
				in.Taken = false
				w.loopCnt[w.cur] = 0
			}
		} else {
			in.Taken = w.r.Bool(w.prog.TakenProb(blk))
		}
		in.Target = w.prog.Blocks[blk.Term.TakenBlock].Addr
		if in.Taken {
			w.gotoBlock(blk.Term.TakenBlock)
		} else {
			w.advanceFallThrough()
		}
	case isa.UncondDirect:
		in.Taken = true
		in.Target = w.prog.Blocks[blk.Term.TakenBlock].Addr
		w.gotoBlock(blk.Term.TakenBlock)
	case isa.DirectCall:
		in.Taken = true
		tgt := w.capCall(blk.Term.TakenBlock)
		in.Target = w.prog.Blocks[tgt].Addr
		w.pushRet(in)
		w.gotoBlock(tgt)
	case isa.IndirectJump:
		in.Taken = true
		tgt := w.pickIndirect(w.prog.IndTargets(blk))
		in.Target = w.prog.Blocks[tgt].Addr
		w.gotoBlock(tgt)
	case isa.IndirectCall:
		in.Taken = true
		var tgt int32
		if blk.Term.Dispatch {
			// Driver loop: dispatch to the next request handler.
			tgt = int32(w.prog.Funcs[w.dispatchFunc()].FirstBlock)
		} else {
			tgt = w.capCall(w.pickIndirect(w.prog.IndTargets(blk)))
		}
		in.Target = w.prog.Blocks[tgt].Addr
		w.pushRet(in)
		w.gotoBlock(tgt)
	case isa.Return:
		in.Taken = true
		ret := w.popRet()
		in.Target = w.prog.Blocks[ret].Addr
		w.gotoBlock(ret)
	}
	return in
}

// pickIndirect samples an indirect target: the dominant first target with
// probability IndirectBias, else uniform over the rest (skewed receiver
// distributions are what make indirect branches ITTAGE-predictable).
func (w *Walker) pickIndirect(targets []int32) int32 {
	bias := w.prog.Params.IndirectBias
	if len(targets) == 1 || w.r.Bool(bias) {
		return targets[0]
	}
	return targets[1+w.r.Intn(len(targets)-1)]
}

// pushRet pushes the return block of call, the current block's
// terminator: the block after the current one.
func (w *Walker) pushRet(call isa.Inst) {
	if len(w.stack) >= maxCallDepth {
		return // tail-call: deepest frames share the caller's return
	}
	ret := w.cur + 1
	if invariant.Enabled && (int(ret) >= len(w.prog.Blocks) || w.prog.Blocks[ret].Addr != call.FallThrough()) {
		invariant.Failf("walker: call at %v returns to block %d, which does not start at its fall-through %v", call.PC, ret, call.FallThrough())
	}
	w.stack = append(w.stack, ret)
}

// capCall redirects a call at the depth cap to the callee's return block,
// so runaway recursion (e.g. a mutual-recursion cycle of entry blocks)
// bounces and unwinds instead of trapping the walk forever.
func (w *Walker) capCall(calleeEntry int32) int32 {
	if len(w.stack) < maxCallDepth {
		return calleeEntry
	}
	fn := w.prog.Funcs[w.prog.FuncOf(int(calleeEntry))]
	return int32(fn.FirstBlock + fn.NumBlocks - 1)
}

// popRet pops a return block; with an empty stack (only possible on
// wrong paths that over-unwind) the walk falls back to the driver loop.
func (w *Walker) popRet() int32 {
	if n := len(w.stack); n > 0 {
		ret := w.stack[n-1]
		w.stack = w.stack[:n-1]
		return ret
	}
	return int32(w.prog.Entry)
}

// dispatchFunc selects a function for top-level dispatch. The center
// drifts a few indices per dispatch and occasionally jumps to a random
// (hot-weighted) function, so the walk's active region — the union of the
// dispatch neighbourhood and the local call subtrees hanging off it —
// moves slowly across the footprint.
func (w *Walker) dispatchFunc() int {
	p := w.prog.Params
	n := len(w.prog.Funcs)
	// Zipf-like request mix: most dispatches go to the hot handler set.
	if hot := w.prog.HotHandlers(); len(hot) > 0 && w.r.Bool(p.DispatchHotFrac) {
		return hot[w.r.Intn(len(hot))]
	}
	if w.r.Bool(p.DispatchJump) {
		w.dispatchCenter = w.prog.PickGlobalFunc(w.r)
	} else if d := p.DispatchDrift; d > 0 {
		w.dispatchCenter += w.r.Intn(2*d+1) - d
	}
	// Wrap the center toroidally so drift never sticks at a boundary.
	w.dispatchCenter = ((w.dispatchCenter % n) + n) % n
	noise := p.DispatchNoise
	if noise < 1 {
		noise = 1
	}
	f := w.dispatchCenter + w.r.Intn(2*noise+1) - noise
	f = ((f % n) + n) % n
	// Dispatch always enters a request handler (call-graph layer 0),
	// never the driver itself (function 0).
	if c := w.prog.SnapToLayer(f, 0); c > 0 {
		return c
	}
	if c := w.prog.SnapToLayer(16, 0); c > 0 {
		return c
	}
	return f
}

func (w *Walker) gotoBlock(id int32) {
	w.cur = id
	w.instIdx = 0
}

// advanceFallThrough moves to the next sequential block; at the end of the
// program it wraps to the entry (cannot happen in generated programs, whose
// final block returns).
func (w *Walker) advanceFallThrough() {
	next := w.cur + 1
	if int(next) >= len(w.prog.Blocks) {
		next = int32(w.prog.Entry)
	}
	w.gotoBlock(next)
}
