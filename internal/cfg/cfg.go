// Package cfg generates synthetic programs as control-flow graphs.
//
// The paper evaluates PDIP on 16 server workloads (cassandra, tomcat, ...)
// whose defining property is an instruction footprint far larger than the
// L1-I and the BTB. We cannot run those JVM/SQL binaries inside this
// simulator, so cfg builds a stand-in: a program made of functions, each a
// sequence of basic blocks with realistic terminators (biased conditional
// branches, loops with learnable trip counts, direct and indirect calls,
// switch-like indirect jumps, returns). A seeded walk over this graph (see
// package trace) produces a dynamic instruction stream with the same
// front-end behaviour that PDIP exploits: L1-I capacity misses, BTB misses,
// branch mispredicts, and recurring (resteer-trigger, miss-target) pairs.
package cfg

import (
	"fmt"
	"math"
	"sort"

	"pdip/internal/isa"
	"pdip/internal/recycle"
	"pdip/internal/rng"
)

// Params controls program generation. The workload package derives one
// Params per paper benchmark; tests construct small ones directly.
type Params struct {
	// Seed drives all layout and probability decisions.
	Seed uint64

	// NumFuncs is the number of functions in the program.
	NumFuncs int
	// BlocksPerFuncMean is the mean number of basic blocks per function.
	BlocksPerFuncMean float64
	// InstsPerBlockMean is the mean number of instructions per block.
	InstsPerBlockMean float64

	// CondFrac, JumpFrac, CallFrac, IndJumpFrac, IndCallFrac, RetFrac are
	// relative weights for terminator kinds of non-final blocks. A block
	// may also simply fall through (weight FallFrac).
	CondFrac, JumpFrac, CallFrac, IndJumpFrac, IndCallFrac, RetFrac, FallFrac float64

	// LoopFrac is the fraction of conditional branches that are loop
	// back-edges with a deterministic trip count (predictable by TAGE).
	LoopFrac float64
	// LoopTripMean is the mean loop trip count.
	LoopTripMean float64
	// CondBias is the mean taken-probability bias magnitude of
	// non-loop conditional branches: each branch gets a taken probability
	// of either CondBias or 1-CondBias (coin flip at generation time).
	// 0.95 yields highly predictable branches; 0.7 yields frequent
	// mispredicts.
	CondBias float64
	// HardBranchFrac is the fraction of non-loop conditional branches
	// that are data-dependent and hard to predict (bias HardBias instead
	// of CondBias). Concentrating mispredicts on a small static site set
	// is what makes the same resteer triggers — and therefore the same
	// FEC lines — recur, the behaviour PDIP and EMISSARY learn from.
	HardBranchFrac float64
	// HardBias is the taken-probability magnitude of hard branches.
	HardBias float64

	// IndirectTargets is the number of distinct targets of each indirect
	// jump/call (switch fan-out / virtual call sites).
	IndirectTargets int
	// IndirectBias is the probability the dominant (first) target is
	// chosen at each execution; the rest is spread uniformly. Real
	// virtual-call sites are heavily skewed toward one receiver, which is
	// what makes them ITTAGE-predictable.
	IndirectBias float64

	// HotFuncFrac is the fraction of functions that form the hot set;
	// HotCallWeight is how much more likely calls target hot functions.
	HotFuncFrac   float64
	HotCallWeight float64

	// CallLocality is the fraction of call sites whose callee lies near
	// the caller in function-index space (a request handler calling its
	// own helper subtree); the remainder pick hot-weighted global callees
	// (shared library/utility functions). Locality in the static call
	// graph is what gives the dynamic walk its phase behaviour: an active
	// region larger than the L1-I but far smaller than the footprint,
	// revisited on timescales prefetchers can learn.
	CallLocality float64
	// CallNeighborhood is the mean |caller-callee| index distance of
	// local calls.
	CallNeighborhood int

	// DispatchNoise is the index spread of top-level dispatch (the
	// function entered when the call stack empties) around a slowly
	// drifting center; DispatchJump is the per-dispatch probability of
	// the center jumping to a uniformly random function (request-type
	// change).
	DispatchNoise int
	DispatchJump  float64
	// DispatchDrift is the maximum per-dispatch random step of the
	// center (uniform in [-DispatchDrift, +DispatchDrift]).
	DispatchDrift int
	// DispatchHotFrac is the probability a dispatch goes to the hot
	// handler set (request popularity is zipf-like: a few request types
	// dominate). Hot handlers revisit fast enough to stay L1I-resident,
	// so the unlearnable dispatch-entry misses stay rare; cold handlers
	// supply background L1I/BTB pressure.
	DispatchHotFrac float64

	// CodeBase is the starting address for code layout.
	CodeBase isa.Addr
	// FuncAlign aligns function starts (bytes, a power of two; 0 selects
	// 64).
	FuncAlign int
}

// DefaultParams returns a small but structurally complete program
// configuration, useful in tests and the quickstart example.
func DefaultParams() Params {
	return Params{
		Seed:              1,
		NumFuncs:          64,
		BlocksPerFuncMean: 8,
		InstsPerBlockMean: 6,
		CondFrac:          0.45,
		JumpFrac:          0.08,
		CallFrac:          0.18,
		IndJumpFrac:       0.03,
		IndCallFrac:       0.04,
		RetFrac:           0.06,
		FallFrac:          0.16,
		LoopFrac:          0.3,
		LoopTripMean:      8,
		CondBias:          0.92,
		HardBranchFrac:    0.08,
		HardBias:          0.65,
		IndirectTargets:   4,
		IndirectBias:      0.85,
		HotFuncFrac:       0.2,
		HotCallWeight:     8,
		CallLocality:      0.75,
		CallNeighborhood:  40,
		DispatchNoise:     60,
		DispatchJump:      0.02,
		DispatchDrift:     4,
		DispatchHotFrac:   0.8,
		CodeBase:          0x400000,
		FuncAlign:         64,
	}
}

// Terminator describes how control leaves a basic block. It holds no
// pointers: an indirect branch's targets live in its program's target
// arena (Program.IndTargets), and its taken probability in the program's
// probability table (Program.TakenProb).
type Terminator struct {
	// TakenBlock is the target block ID for direct branches (CondDirect
	// taken-target, UncondDirect, DirectCall).
	TakenBlock int32

	// targetOff and numTargets locate the target block IDs of an indirect
	// jump/call in the program's target arena.
	targetOff uint32

	// LoopTrip, if > 0, marks a CondDirect loop back-edge taken exactly
	// LoopTrip-1 consecutive times then not taken (trip count LoopTrip).
	LoopTrip uint16

	// Kind is the branch kind of the block's final instruction;
	// isa.NotBranch means pure fall-through into the next block.
	Kind isa.BranchKind

	numTargets uint8
	// prob indexes the program's probability table.
	prob uint8

	// Dispatch marks the driver loop's indirect call: its target is the
	// entry of a request handler chosen by the walker's dispatch policy
	// rather than from its indirect targets.
	Dispatch bool
}

// Block is one basic block: a fixed-width, pointer-free 32-byte record,
// so a program's block table is one allocation the garbage collector
// never scans, and MoveOffHeap can take it out of the heap. A block's
// ID is its index in Program.Blocks, and its function is
// Program.FuncOf(ID). Its instruction sizes live in the program's
// instruction-size arena (Program.InstSizes).
type Block struct {
	// Addr is the address of the block's first instruction.
	Addr isa.Addr
	// Term describes the block's control-flow exit.
	Term Terminator
	// instOff is the index of the block's first instruction size in the
	// arena; numInsts and size are its instruction count and byte size.
	instOff  uint32
	numInsts uint16
	size     uint16
}

// NumInsts returns the number of instructions in the block.
func (b *Block) NumInsts() int { return int(b.numInsts) }

// Size returns the block size in bytes.
func (b *Block) Size() int { return int(b.size) }

// End returns the address one past the last byte of the block.
func (b *Block) End() isa.Addr { return b.Addr + isa.Addr(b.size) }

// Func is one function: a contiguous run of blocks.
type Func struct {
	// ID is the function's index in Program.Funcs.
	ID int
	// FirstBlock and NumBlocks delimit the function's blocks, which are
	// laid out contiguously in both block-ID and address space.
	FirstBlock, NumBlocks int
	// Layer is the function's call-graph layer. Calls only go from layer
	// k to layer k+1, making the static call graph a DAG: recursion is
	// structurally impossible and call depth is bounded by the layer
	// count. Layer 0 functions are request handlers (dispatch entry
	// points); the deepest layers are shared utility code, called from
	// everywhere and therefore naturally hot.
	Layer int
	// Hot marks membership in the hot set (call-weighted).
	Hot bool
}

// Program is a complete synthetic program.
type Program struct {
	Params Params
	Blocks []Block
	Funcs  []Func
	// Entry is the block ID where execution starts.
	Entry int

	// insts holds every block's instruction sizes, block after block;
	// targets holds every indirect branch's target block IDs; probs holds
	// the distinct taken probabilities, probs[0] = 0.
	insts   []uint8
	targets []int32
	probs   []float64
	// nHot caches the hot-function count for PickGlobalFunc.
	nHot int
	// layerFuncs lists function IDs per call-graph layer.
	layerFuncs [][]int
	// hotHandlers lists hot layer-0 functions (dispatch targets).
	hotHandlers []int
}

// MaxLayer is the deepest call-graph layer; functions there make no calls.
const MaxLayer = 4

// Instruction sizes are drawn from [minInstSize, maxInstSize] bytes
// (x86-like, mean ~4).
const (
	minInstSize = 2
	maxInstSize = minInstSize + 5
)

// check rejects parameters the program layout cannot hold: a function
// alignment that is not a power of two (the layout masks addresses with
// it), a block longer than its count and byte-size fields, a loop trip
// count past its field (and the walker's per-block loop counter), or an
// indirect fan-out wider than its count field.
func (p *Params) check() error {
	if p.NumFuncs <= 0 {
		return fmt.Errorf("cfg: NumFuncs must be positive, got %d", p.NumFuncs)
	}
	if p.BlocksPerFuncMean < 1 || p.InstsPerBlockMean < 1 {
		return fmt.Errorf("cfg: block/inst means must be >= 1")
	}
	if p.FuncAlign < 0 || p.FuncAlign&(p.FuncAlign-1) != 0 {
		return fmt.Errorf("cfg: FuncAlign must be a power of two, got %d", p.FuncAlign)
	}
	// The longest block Generate can draw (see layout) must fit a block's
	// instruction count and byte size.
	if longest := p.InstsPerBlockMean*5 + 2; longest*maxInstSize > math.MaxUint16 {
		return fmt.Errorf("cfg: InstsPerBlockMean %g allows blocks of %.0f instructions, more than a block holds (%d bytes)",
			p.InstsPerBlockMean, longest, math.MaxUint16)
	}
	// The longest trip genTerminator can draw must fit LoopTrip.
	if longest := p.LoopTripMean*4 + 2; longest > math.MaxUint16 {
		return fmt.Errorf("cfg: LoopTripMean %g allows loops of %.0f trips, more than a loop holds (%d)",
			p.LoopTripMean, longest, math.MaxUint16)
	}
	if p.IndirectTargets > math.MaxUint8 {
		return fmt.Errorf("cfg: IndirectTargets must be at most %d, got %d", math.MaxUint8, p.IndirectTargets)
	}
	return nil
}

// Generate builds a program from params. Generation is deterministic in
// Params (including Seed).
func Generate(p Params) (*Program, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	if p.FuncAlign == 0 {
		p.FuncAlign = 64
	}
	if p.CodeBase == 0 {
		p.CodeBase = 0x400000
	}
	r := rng.New(p.Seed)
	prog := &Program{Params: p, probs: []float64{0}}

	// Pass 1: create functions and blocks with sizes; lay out addresses.
	// A dry run on a copy of the generator makes the same draws and only
	// counts, so the tables are allocated once at their exact size.
	dry := *r
	nBlocks, nInsts := layout(&dry, p, nil)
	if nBlocks > math.MaxInt32 || uint64(nInsts) > math.MaxUint32 {
		return nil, fmt.Errorf("cfg: %d blocks of %d instructions exceed the program layout", nBlocks, nInsts)
	}
	prog.Blocks = make([]Block, 0, nBlocks)
	prog.insts = make([]uint8, 0, nInsts)
	prog.Funcs = make([]Func, 0, p.NumFuncs)
	layout(r, p, prog)

	prog.layerFuncs = make([][]int, MaxLayer+1)
	for _, fn := range prog.Funcs {
		if fn.Hot {
			prog.nHot++
		}
		prog.layerFuncs[fn.Layer] = append(prog.layerFuncs[fn.Layer], fn.ID)
		if fn.Hot && fn.Layer == 0 && fn.ID != 0 {
			prog.hotHandlers = append(prog.hotHandlers, fn.ID)
		}
	}

	// Pass 2: assign terminators now that all blocks exist. The driver
	// (function 0) already has its terminators.
	weights := []float64{p.CondFrac, p.JumpFrac, p.CallFrac, p.IndJumpFrac, p.IndCallFrac, p.RetFrac, p.FallFrac}
	kinds := []isa.BranchKind{isa.CondDirect, isa.UncondDirect, isa.DirectCall, isa.IndirectJump, isa.IndirectCall, isa.Return, isa.NotBranch}
	for fi := 1; fi < len(prog.Funcs); fi++ {
		fn := &prog.Funcs[fi]
		for b := 0; b < fn.NumBlocks; b++ {
			blk := &prog.Blocks[fn.FirstBlock+b]
			last := b == fn.NumBlocks-1
			if last {
				// The final block always returns so every call terminates.
				blk.Term = Terminator{Kind: isa.Return}
				continue
			}
			blk.Term = prog.genTerminator(r, fn, b, weights, kinds)
		}
	}
	if uint64(len(prog.targets)) > math.MaxUint32 {
		return nil, fmt.Errorf("cfg: %d indirect targets exceed the program layout", len(prog.targets))
	}
	prog.targets = append([]int32(nil), prog.targets...) // drop the growth slack
	if len(prog.probs) > math.MaxUint8+1 {
		return nil, fmt.Errorf("cfg: %d distinct taken probabilities exceed the program layout (%d)", len(prog.probs), math.MaxUint8+1)
	}

	// Execution starts in the driver loop.
	prog.Entry = 0
	return prog, nil
}

// MoveOffHeap moves the program's block, function, instruction-size and
// indirect-target tables out of the collected heap into read-only memory
// (recycle.OffHeap), for a program kept for the life of the process: the
// garbage collector stops budgeting heap growth for them, and a write
// into them faults. The moved tables are never freed, so a program that
// may be dropped must stay on the heap.
func (prog *Program) MoveOffHeap() {
	prog.Blocks = recycle.OffHeap(prog.Blocks)
	prog.Funcs = recycle.OffHeap(prog.Funcs)
	prog.insts = recycle.OffHeap(prog.insts)
	prog.targets = recycle.OffHeap(prog.targets)
}

// layout makes pass 1's draws: function 0's two driver blocks, then each
// further function's block count and hot bit and each block's
// instruction sizes. It returns how many blocks and instructions it
// drew. With prog nil it only draws and counts; otherwise it appends the
// functions, blocks and sizes to prog's tables, laying addresses out from
// CodeBase.
func layout(r *rng.RNG, p Params, prog *Program) (blocks, insts int) {
	addr := p.CodeBase
	block := func(n int) {
		blocks++
		insts += n
		if prog == nil {
			for i := 0; i < n; i++ {
				r.Intn(maxInstSize - minInstSize + 1)
			}
			return
		}
		blk := Block{Addr: addr, instOff: uint32(len(prog.insts)), numInsts: uint16(n)}
		for i := 0; i < n; i++ {
			sz := uint8(minInstSize + r.Intn(maxInstSize-minInstSize+1))
			prog.insts = append(prog.insts, sz)
			blk.size += uint16(sz)
		}
		addr += isa.Addr(blk.size)
		prog.Blocks = append(prog.Blocks, blk)
	}

	// Function 0 is the driver: a tiny dispatch loop that indirect-calls a
	// request handler (layer-0 function) and loops. Handlers return here,
	// so returns are RAS-predictable; the dispatch indirect call is the
	// (realistically) hard-to-predict site.
	block(4)
	block(3)
	if prog != nil {
		prog.Blocks[0].Term = Terminator{Kind: isa.IndirectCall, Dispatch: true}
		prog.Blocks[1].Term = Terminator{Kind: isa.UncondDirect, TakenBlock: 0}
		prog.Funcs = append(prog.Funcs, Func{ID: 0, FirstBlock: 0, NumBlocks: 2, Layer: 0})
	}
	align := isa.Addr(p.FuncAlign)
	for f := 1; f < p.NumFuncs; f++ {
		addr = (addr + align - 1) &^ (align - 1)
		nBlocks := r.Geometric(p.BlocksPerFuncMean, int(p.BlocksPerFuncMean*6)+2)
		if nBlocks < 2 {
			nBlocks = 2 // entry block + return block at minimum
		}
		fn := Func{ID: f, FirstBlock: blocks, NumBlocks: nBlocks, Layer: layerOf(f)}
		fn.Hot = r.Bool(p.HotFuncFrac)
		for b := 0; b < nBlocks; b++ {
			block(r.Geometric(p.InstsPerBlockMean, int(p.InstsPerBlockMean*5)+2))
		}
		if prog != nil {
			prog.Funcs = append(prog.Funcs, fn)
		}
	}
	return blocks, insts
}

// layerOf interleaves layers in index (and therefore address) space with
// fractions 8/4/2/1/1 per 16 functions, so call-locality neighbourhoods
// always contain every layer.
func layerOf(i int) int {
	switch m := i % 16; {
	case m < 8:
		return 0
	case m < 12:
		return 1
	case m < 14:
		return 2
	case m < 15:
		return 3
	default:
		return 4
	}
}

// MustGenerate is Generate that panics on error, for tests and examples
// with known-good parameters.
func MustGenerate(p Params) *Program {
	prog, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return prog
}

func (prog *Program) genTerminator(r *rng.RNG, fn *Func, b int, weights []float64, kinds []isa.BranchKind) Terminator {
	kind := kinds[r.Pick(weights)]
	// The deepest layer makes no calls (the call graph is a DAG).
	if fn.Layer >= MaxLayer && (kind == isa.DirectCall || kind == isa.IndirectCall) {
		kind = isa.NotBranch
	}
	t := Terminator{Kind: kind}
	switch kind {
	case isa.NotBranch:
		// Fall through to the next block.
	case isa.CondDirect:
		if r.Bool(prog.Params.LoopFrac) && b > 0 {
			// Loop back-edge to a *nearby* earlier block: inner loops
			// span a few blocks. Long-reach back-edges would nest over
			// other loops and multiply re-execution unboundedly.
			reach := r.Geometric(3, 10)
			if reach > b {
				reach = b
			}
			t.TakenBlock = int32(fn.FirstBlock + b - reach)
			t.LoopTrip = uint16(1 + r.Geometric(prog.Params.LoopTripMean, int(prog.Params.LoopTripMean*4)+1))
		} else {
			// Easy branches take short forward skips: compilers lay hot
			// paths out straight, so their taken targets land a block or
			// two ahead and the two sides reconverge quickly. Hard
			// (data-dependent) branches guard genuinely different code
			// paths, so their taken targets jump far ahead: on a
			// mispredict the resteer path shares no lines with the wrong
			// path the front-end was priming — these are the exposed,
			// front-end-critical misses PDIP targets.
			hard := r.Bool(prog.Params.HardBranchFrac)
			mean, cap := 2.0, 8
			if hard {
				mean, cap = 14.0, 40
			}
			skip := r.Geometric(mean, cap)
			if max := fn.NumBlocks - b - 1; skip > max {
				skip = max
			}
			t.TakenBlock = int32(fn.FirstBlock + b + skip)
			if hard {
				// Hard branches are majority-taken long forward skips
				// guarding a cold slow path: the predictor learns
				// "taken", and on the minority not-taken outcome the
				// front-end resteers into the skipped-over blocks — lines
				// the wrong path never primed and that execute too rarely
				// to stay L1I-resident. TakenProb is HardBias directly.
				bias := prog.Params.HardBias
				if bias == 0 {
					bias = 0.7
				}
				t.prob = prog.probIndex(bias)
			} else {
				bias := prog.Params.CondBias
				if r.Bool(0.5) {
					bias = 1 - bias
				}
				t.prob = prog.probIndex(bias)
			}
		}
	case isa.UncondDirect:
		// Forward-only: unconditional cycles would trap the walker.
		// Loops are expressed exclusively by trip-counted back-edges.
		// Like conditional skips, jumps are short and forward.
		skip := r.Geometric(3, 12)
		if max := fn.NumBlocks - b - 1; skip > max {
			skip = max
		}
		t.TakenBlock = int32(fn.FirstBlock + b + skip)
	case isa.DirectCall:
		t.TakenBlock = int32(prog.Funcs[prog.pickCallee(r, fn.ID)].FirstBlock)
	case isa.IndirectJump:
		n := prog.Params.IndirectTargets
		if n < 2 {
			n = 2
		}
		// Forward-only, like UncondDirect: switch dispatch to later arms,
		// spread a little wider than plain jumps.
		t.targetOff, t.numTargets = uint32(len(prog.targets)), uint8(n)
		for i := 0; i < n; i++ {
			skip := r.Geometric(5, 16)
			if max := fn.NumBlocks - b - 1; skip > max {
				skip = max
			}
			prog.targets = append(prog.targets, int32(fn.FirstBlock+b+skip))
		}
	case isa.IndirectCall:
		n := prog.Params.IndirectTargets
		if n < 2 {
			n = 2
		}
		t.targetOff, t.numTargets = uint32(len(prog.targets)), uint8(n)
		for i := 0; i < n; i++ {
			prog.targets = append(prog.targets, int32(prog.Funcs[prog.pickCallee(r, fn.ID)].FirstBlock))
		}
	case isa.Return:
	}
	return t
}

// probIndex returns p's index in the probability table, adding it when
// new. Generate rejects a table past a one-byte index.
func (prog *Program) probIndex(p float64) uint8 {
	for i, q := range prog.probs {
		if math.Float64bits(q) == math.Float64bits(p) {
			return uint8(i)
		}
	}
	prog.probs = append(prog.probs, p)
	return uint8(len(prog.probs) - 1)
}

// pickCallee chooses a callee for a call site in function caller: always
// in the next call-graph layer; with probability CallLocality a neighbour
// in function-index space (the handler's own helper subtree), otherwise a
// hot-weighted global callee in that layer (shared utility code).
func (prog *Program) pickCallee(r *rng.RNG, caller int) int {
	p := prog.Params
	layer := prog.Funcs[caller].Layer + 1
	if layer > MaxLayer {
		layer = MaxLayer
	}
	if r.Bool(p.CallLocality) {
		scale := p.CallNeighborhood
		if scale < 1 {
			scale = 1
		}
		delta := r.Geometric(float64(scale), scale*6)
		if r.Bool(0.5) {
			delta = -delta
		}
		callee := caller + delta
		n := len(prog.Funcs)
		// Reflect at the boundaries to keep the neighbourhood dense.
		if callee < 0 {
			callee = -callee
		}
		if callee >= n {
			callee = 2*(n-1) - callee
		}
		if callee < 0 || callee >= n {
			callee = r.Intn(n)
		}
		if c := prog.SnapToLayer(callee, layer); c >= 0 {
			return c
		}
	}
	return prog.PickFuncInLayer(r, layer)
}

// SnapToLayer returns the function nearest to idx whose layer matches, or
// -1 if none within a small search radius (layers interleave every 16
// indices, so the search practically always succeeds).
func (prog *Program) SnapToLayer(idx, layer int) int {
	n := len(prog.Funcs)
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	for d := 0; d < 48; d++ {
		if i := idx + d; i < n && prog.Funcs[i].Layer == layer {
			return i
		}
		if i := idx - d; i >= 0 && prog.Funcs[i].Layer == layer {
			return i
		}
	}
	return -1
}

// HotHandlers returns the hot layer-0 dispatch targets.
func (prog *Program) HotHandlers() []int { return prog.hotHandlers }

// PickFuncInLayer picks a function in the given layer, biased toward the
// hot set (a few weighted retries approximate HotCallWeight).
func (prog *Program) PickFuncInLayer(r *rng.RNG, layer int) int {
	list := prog.layerFuncs[layer]
	if len(list) == 0 {
		return r.Intn(len(prog.Funcs))
	}
	pick := list[r.Intn(len(list))]
	w := prog.Params.HotCallWeight
	if w <= 1 {
		return pick
	}
	pref := (w - 1) / w
	for try := 0; try < 3 && !prog.Funcs[pick].Hot && r.Bool(pref); try++ {
		pick = list[r.Intn(len(list))]
	}
	return pick
}

// PickGlobalFunc chooses a function uniformly but weighted toward the hot
// set. The trace walker also uses it for dispatch jumps.
func (prog *Program) PickGlobalFunc(r *rng.RNG) int {
	hotW := prog.Params.HotCallWeight
	if hotW < 1 {
		hotW = 1
	}
	nHot := prog.nHot
	total := float64(nHot)*hotW + float64(len(prog.Funcs)-nHot)
	if nHot > 0 && r.Float64() < float64(nHot)*hotW/total {
		k := r.Intn(nHot)
		for _, fn := range prog.Funcs {
			if fn.Hot {
				if k == 0 {
					return fn.ID
				}
				k--
			}
		}
	}
	return r.Intn(len(prog.Funcs))
}

// InstSizes returns the byte size of each of b's instructions in order;
// the final instruction is the terminator when b.Term.Kind != NotBranch.
// The slice aliases the program and must not be modified.
func (prog *Program) InstSizes(b *Block) []uint8 {
	end := b.instOff + uint32(b.numInsts)
	return prog.insts[b.instOff:end:end]
}

// IndTargets returns the target block IDs of b's indirect jump or call
// (none for other terminators). The slice aliases the program and must
// not be modified.
func (prog *Program) IndTargets(b *Block) []int32 {
	end := b.Term.targetOff + uint32(b.Term.numTargets)
	return prog.targets[b.Term.targetOff:end:end]
}

// TakenProb returns the taken probability of b's non-loop CondDirect
// terminator (0 for every other terminator).
func (prog *Program) TakenProb(b *Block) float64 { return prog.probs[b.Term.prob] }

// FuncOf returns the index of the function that owns block id (functions
// are contiguous runs of blocks, in block order).
func (prog *Program) FuncOf(id int) int {
	return sort.Search(len(prog.Funcs), func(f int) bool {
		return prog.Funcs[f].FirstBlock > id
	}) - 1
}

// LastPC returns the address of b's final instruction.
func (prog *Program) LastPC(b *Block) isa.Addr {
	return b.End() - isa.Addr(prog.insts[b.instOff+uint32(b.numInsts)-1])
}

// BlockIndex returns the ID of the block containing addr, or -1 if addr is
// outside the program's code region or inside inter-function alignment
// padding.
func (prog *Program) BlockIndex(addr isa.Addr) int {
	i := sort.Search(len(prog.Blocks), func(i int) bool {
		return prog.Blocks[i].Addr > addr
	}) - 1
	if i < 0 || addr >= prog.Blocks[i].End() {
		return -1
	}
	return i
}

// FootprintBytes returns the total code size in bytes including alignment
// padding (last block end minus code base).
func (prog *Program) FootprintBytes() int {
	if len(prog.Blocks) == 0 {
		return 0
	}
	last := prog.Blocks[len(prog.Blocks)-1]
	return int(last.End() - prog.Params.CodeBase)
}

// FootprintLines returns the code footprint in 64-byte cache lines.
func (prog *Program) FootprintLines() int {
	return (prog.FootprintBytes() + isa.LineSize - 1) / isa.LineSize
}

// NumStaticBranches counts blocks whose terminator is a branch.
func (prog *Program) NumStaticBranches() int {
	n := 0
	for i := range prog.Blocks {
		if prog.Blocks[i].Term.Kind.IsBranch() {
			n++
		}
	}
	return n
}
