package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/workload"
)

// programDigest hashes everything a walk over prog can observe: every
// block's identity (its index and function), address, instruction sizes
// and terminator (kind, direct target, bias, loop trip, dispatch mark,
// indirect targets), the function table and the entry block.
func programDigest(prog *cfg.Program) string {
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	put(uint64(prog.Entry))
	put(uint64(len(prog.Blocks)))
	for i := range prog.Blocks {
		blk := &prog.Blocks[i]
		put(uint64(i))
		put(uint64(prog.FuncOf(i)))
		put(uint64(blk.Addr))
		sizes := prog.InstSizes(blk)
		put(uint64(len(sizes)))
		b = append(b, sizes...)
		t := blk.Term
		put(uint64(t.Kind))
		put(uint64(t.TakenBlock))
		put(math.Float64bits(prog.TakenProb(blk)))
		put(uint64(t.LoopTrip))
		if t.Dispatch {
			put(1)
		} else {
			put(0)
		}
		targets := prog.IndTargets(blk)
		put(uint64(len(targets)))
		for _, tgt := range targets {
			put(uint64(tgt))
		}
	}
	put(uint64(len(prog.Funcs)))
	for _, fn := range prog.Funcs {
		put(uint64(fn.ID))
		put(uint64(fn.FirstBlock))
		put(uint64(fn.NumBlocks))
		put(uint64(fn.Layer))
		if fn.Hot {
			put(1)
		} else {
			put(0)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinnedPrograms holds programDigest of every profile's program. A
// generator change that moves any block, instruction, terminator or
// function of any benchmark changes its digest; the golden grid alone
// generates only three of the sixteen programs.
var pinnedPrograms = map[string]string{
	"cassandra":      "61f6c7b738f18af70be03ac0523b8b163d6cae953d0e214b0d979237ca4f94e2",
	"tomcat":         "ec4e10db63d87f6d7930a9fa627a7e22aa4aefee435c4563e12805afc1c1bc74",
	"kafka":          "f3ea5c742af2430bd6a4ca10dfdeab9c0545dcc15d6f2b53ae39c729d5fea15e",
	"xalan":          "aac7b438ada6412627fad59cac45136fcf8df820e2fccc7784da4a58942a433d",
	"finagle-http":   "6bfc9e52c821f8e9c9ffa20457272d3727afa3d98bd81490c48baadb27ec889f",
	"dotty":          "8d98583e63e8160608d4a8f4561b45f163c0296f69e29c250faaf864c73a9c94",
	"tpcc":           "fedad8eb74dd6460a36a640ab19220aa170475b20608246fe937fd92a1e1155a",
	"ycsb":           "45a39a9f836b2c9d4d997fd84853effae7981a465084603362e6bd2a1d48f5a0",
	"twitter":        "47a0167fb65bff89f18d827e36d789eda7be9b9837cfe157c532df59fb0b55e7",
	"voter":          "c3467db23d193ced18296c603926bca9653ab3a9ad27525d9b7e468aa5b24f00",
	"smallbank":      "3f9f1aa9952d513fc49a362be98b36ef8c85cdbe06bc4e1e6ca02759fca15b7c",
	"tatp":           "eb54d09191745115bac14f650be2b95fb49a5076444a272a09209e218d01ee01",
	"sibench":        "966a494c65449196953741d6e02dd0f0569948bfc42e4dfff379a592c8c77458",
	"noop":           "fbcfafd2abf0f6c53a2a69ec109e8afdfe6d726b363115007d3e435bdf3ac355",
	"verilator":      "9812ce51111098df07cb24bcdfa83a147d0130ddb75b77997e3234b9b11599a6",
	"speedometer2.0": "4925d0d84abf9b257cccdfb5e07eb237bc3249bc40b1f56e6847fba88e26ff9b",
}

// TestProgramsPinned regenerates all sixteen programs and requires each
// to hash to its pinned digest, both as cfg.Generate returns it and as
// Profile.Program keeps it, with its tables moved off the heap.
func TestProgramsPinned(t *testing.T) {
	for _, p := range workload.All() {
		want, ok := pinnedPrograms[p.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", p.Name)
		}
		prog, err := cfg.Generate(p.CFG)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := programDigest(prog); got != want {
			t.Errorf("%s: program digest %s, pinned %s", p.Name, got, want)
		}
		stock, err := p.Program()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if got := programDigest(stock); got != want {
			t.Errorf("%s: stock program digest %s, pinned %s", p.Name, got, want)
		}
	}
}
