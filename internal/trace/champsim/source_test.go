package champsim

import (
	"flag"
	"path/filepath"
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/isa"
	"pdip/internal/trace"
	"pdip/internal/workload"
)

// updateSample regenerates the committed sample trace.
var updateSample = flag.Bool("update-sample", false, "regenerate testdata/kafka_10k.champsim.gz")

// harnessSeedSalt mirrors the harness's walker seed derivation
// (buildConfig: prof.CFG.Seed ^ 0x5eed), so the committed sample replays
// bit-identically under `pdipsim -trace`.
const harnessSeedSalt = 0x5eed

const samplePath = "testdata/kafka_10k.champsim.gz"
const sampleRecords = 10_000

func kafkaProgram(t testing.TB) (*cfg.Program, uint64) {
	t.Helper()
	prof, err := workload.ByName("kafka")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := prof.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog, prof.CFG.Seed ^ harnessSeedSalt
}

// recordWalker writes n oracle instructions to path.
func recordWalker(t testing.TB, path string, prog *cfg.Program, seed uint64, n int) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	walker := trace.New(prog, seed)
	for i := 0; i < n; i++ {
		if err := w.WriteInst(walker.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// sameInst compares a decoded instruction against the synthetic original.
// Not-taken branches never encode a target (ChampSim traces carry targets
// only as the next record's IP), and nothing downstream reads Target when
// !Taken, so it is excluded exactly there.
// take collects n instructions from src, one run at a time.
func take(src trace.Source, n int) []isa.Inst {
	var out []isa.Inst
	for len(out) < n {
		out = src.AppendRun(out, n-len(out))
	}
	return out
}

func sameInst(got, want isa.Inst) bool {
	if got.PC != want.PC || got.Size != want.Size || got.Kind != want.Kind || got.Taken != want.Taken {
		return false
	}
	return !want.Taken || got.Target == want.Target
}

// TestStandaloneStreamEquality records a walker stream and replays it
// standalone: every decoded instruction must match the original.
func TestStandaloneStreamEquality(t *testing.T) {
	prog, seed := kafkaProgram(t)
	path := filepath.Join(t.TempDir(), "kafka.champsim")
	const n = 20_000
	recordWalker(t, path, prog, seed, n)

	src, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ref := trace.New(prog, seed)
	// The last record's target lookahead wraps to record 0, so compare
	// all but the final instruction.
	for i := 0; i < n-1; i++ {
		got, want := src.Next(), ref.Next()
		if !sameInst(got, want) {
			t.Fatalf("instruction %d: decoded %+v, synthetic %+v", i, got, want)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialMatch replays a recorded trace differentially: the
// cross-check must stay clean against the generating walker and must
// latch a divergence against a different one.
func TestDifferentialMatch(t *testing.T) {
	prog, seed := kafkaProgram(t)
	path := filepath.Join(t.TempDir(), "kafka.champsim")
	const n = 20_000
	recordWalker(t, path, prog, seed, n)

	src, err := OpenDifferential(path, prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		src.Next()
	}
	if err := src.Err(); err != nil {
		t.Fatalf("matching replay diverged: %v", err)
	}
	src.Close()

	// A different seed walks a different path; the cross-check must
	// notice, not silently simulate the wrong stream.
	bad, err := OpenDifferential(path, prog, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	for i := 0; i < 1000 && bad.Err() == nil; i++ {
		bad.Next()
	}
	if bad.Err() == nil {
		t.Fatal("mismatched replay did not latch a divergence")
	}
}

// TestWrongPathDerivation forks the derived wrong path at a committed PC
// and checks it replays cached outcomes deterministically (two forks at
// the same point produce the same stream) and degrades to linear fetch at
// unvisited PCs.
func TestWrongPathDerivation(t *testing.T) {
	prog, seed := kafkaProgram(t)
	path := filepath.Join(t.TempDir(), "kafka.champsim")
	recordWalker(t, path, prog, seed, 20_000)

	src, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var lastPC isa.Addr
	for i := 0; i < 5000; i++ {
		lastPC = src.Next().PC
	}

	stream := take(src.ForkWrong(nil, lastPC), 200)
	for i, got := range take(src.ForkWrong(nil, lastPC), 200) {
		if got != stream[i] {
			t.Fatalf("wrong-path fork %d diverged from its twin: %+v vs %+v", i, got, stream[i])
		}
	}

	// An unvisited PC must fetch linearly, never panic or wander.
	for i, in := range take(src.ForkWrong(nil, 0x7fff_0000), 16) {
		if in.Kind != isa.NotBranch || in.PC != 0x7fff_0000+isa.Addr(4*i) {
			t.Fatalf("linear degradation broken at %d: %+v", i, in)
		}
	}
}

// TestSourceCheckpointRoundTrip captures a standalone source mid-stream
// and restores it into a fresh source over the same file: the two must
// produce identical instructions from there on (including wrong-path
// forks, whose decode cache and RAS mirror ride in the checkpoint).
func TestSourceCheckpointRoundTrip(t *testing.T) {
	prog, seed := kafkaProgram(t)
	path := filepath.Join(t.TempDir(), "kafka.champsim")
	recordWalker(t, path, prog, seed, 20_000)

	src, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var lastPC isa.Addr
	for i := 0; i < 7000; i++ {
		lastPC = src.Next().PC
	}
	st := src.CaptureSource()

	fork, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fork.Close()
	if err := fork.RestoreSource(st); err != nil {
		t.Fatal(err)
	}

	// Wrong paths forked from the original and the restored source must
	// agree (the decode cache travelled through the checkpoint).
	wa, wb := src.ForkWrong(nil, lastPC), fork.ForkWrong(nil, lastPC)
	sb := take(wb, 200)
	for i, a := range take(wa, 200) {
		if a != sb[i] {
			t.Fatalf("restored wrong path %d: %+v vs %+v", i, a, sb[i])
		}
	}
	// And a captured wrong path must restore to the same stream position.
	wst := wa.CaptureSource()
	wc, err := fork.RestoreWrong(wst)
	if err != nil {
		t.Fatal(err)
	}
	sc := take(wc, 200)
	for i, a := range take(wa, 200) {
		if a != sc[i] {
			t.Fatalf("restored-from-checkpoint wrong path %d: %+v vs %+v", i, a, sc[i])
		}
	}

	for i := 0; i < 5000; i++ {
		a, b := src.Next(), fork.Next()
		if a != b {
			t.Fatalf("restored source %d: %+v vs %+v", i, a, b)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if err := fork.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSampleTrace pins the committed sample: a gzipped 10K-instruction
// kafka recording that must keep decoding bit-identically to the
// generating walker. Regenerate with -update-sample after intentional
// format changes.
func TestSampleTrace(t *testing.T) {
	prog, seed := kafkaProgram(t)
	if *updateSample {
		recordWalker(t, samplePath, prog, seed, sampleRecords)
	}
	src, err := Open(samplePath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace/champsim -update-sample` to regenerate)", err)
	}
	defer src.Close()
	if got := src.r.Records(); got != sampleRecords {
		t.Fatalf("sample has %d records, want %d", got, sampleRecords)
	}
	ref := trace.New(prog, seed)
	for i := 0; i < sampleRecords-1; i++ {
		got, want := src.Next(), ref.Next()
		if !sameInst(got, want) {
			t.Fatalf("sample instruction %d: decoded %+v, synthetic %+v", i, got, want)
		}
	}
}
