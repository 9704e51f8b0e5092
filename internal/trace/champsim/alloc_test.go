package champsim

import (
	"path/filepath"
	"testing"

	"pdip/internal/isa"
)

// TestDecoderSteadyStateAllocs holds the streaming contract: replaying a
// multi-MB trace allocates nothing per instruction once the reader's
// chunk buffer exists — the trace is never materialized, and the PR-4
// zero-alloc steady state survives the trace front-end. (Gzipped traces
// pay gzip's internal state on rewind; the bound is on the raw path,
// which is what the alloc-sensitive benchmarks use.)
func TestDecoderSteadyStateAllocs(t *testing.T) {
	prog, seed := kafkaProgram(t)
	path := filepath.Join(t.TempDir(), "big.champsim")
	const n = 100_000 // 6.4 MB on disk
	recordWalker(t, path, prog, seed, n)

	src, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Warm past priming and the first chunk fills.
	for i := 0; i < 5000; i++ {
		src.Next()
	}
	var sink uint64
	avg := testing.AllocsPerRun(50, func() {
		// Each run crosses multiple chunk boundaries (and, across runs,
		// the end-of-trace wrap), so chunk refill and rewind are inside
		// the measured window.
		for i := 0; i < 5000; i++ {
			sink += uint64(src.Next().PC)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state decode allocates %.1f objects per 5000 instructions, want 0", avg)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	_ = sink
}

// TestWrongPathAllocs extends the bound to derived wrong paths: forking
// with a recycled adapter and walking it must not allocate either.
func TestWrongPathAllocs(t *testing.T) {
	prog, seed := kafkaProgram(t)
	path := filepath.Join(t.TempDir(), "big.champsim")
	recordWalker(t, path, prog, seed, 50_000)

	src, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var pc uint64
	for i := 0; i < 10_000; i++ {
		pc = uint64(src.Next().PC)
	}
	// First fork allocates the adapter; recycled ones must not.
	free := src.ForkWrong(nil, 0)
	var sink uint64
	run := make([]isa.Inst, 0, 64)
	avg := testing.AllocsPerRun(50, func() {
		w := src.ForkWrong(free, isa.Addr(pc))
		for n := 0; n < 64; n += len(run) {
			run = w.AppendRun(run[:0], 64-n)
			sink += uint64(run[0].PC)
		}
		free = w
	})
	if avg != 0 {
		t.Fatalf("wrong-path fork allocates %.1f objects, want 0", avg)
	}
	_ = sink
}
