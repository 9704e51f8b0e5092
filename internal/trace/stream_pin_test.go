package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"pdip/internal/cfg"
	"pdip/internal/isa"
	"pdip/internal/trace"
	"pdip/internal/workload"
)

const (
	pinOracleInsts = 200_000
	pinForkInsts   = 20_000
)

// forkPCs returns the three kinds of PC a wrong path can start at: a
// block start, a point inside an instruction, and inter-function
// alignment padding (the walker is lost there until it re-enters code).
func forkPCs(t *testing.T, prog *cfg.Program) []isa.Addr {
	start := prog.Blocks[len(prog.Blocks)/2].Addr
	var mid, pad isa.Addr
	for i := len(prog.Blocks) / 3; i < len(prog.Blocks) && mid == 0; i++ {
		if sizes := prog.InstSizes(&prog.Blocks[i]); len(sizes) >= 2 {
			mid = prog.Blocks[i].Addr + isa.Addr(sizes[0]) + 1
		}
	}
	for f := len(prog.Funcs) / 2; f+1 < len(prog.Funcs) && pad == 0; f++ {
		fn := prog.Funcs[f]
		end := prog.Blocks[fn.FirstBlock+fn.NumBlocks-1].End()
		if end < prog.Blocks[prog.Funcs[f+1].FirstBlock].Addr {
			pad = end
		}
	}
	if mid == 0 || pad == 0 || prog.BlockIndex(pad) >= 0 {
		t.Fatalf("no mid-instruction (%v) or padding (%v) fork point", mid, pad)
	}
	return []isa.Addr{start, mid, pad}
}

// streamDigest hashes the oracle walk of prog and a wrong-path fork of
// it at each of forkPCs, taking the instructions with take.
func streamDigest(t *testing.T, prog *cfg.Program, seed uint64, take func(w *trace.Walker, n int, emit func(isa.Inst))) string {
	h := sha256.New()
	var buf []byte
	emit := func(in isa.Inst) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(in.PC))
		buf = append(buf, in.Size, byte(in.Kind))
		if in.Taken {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(in.Target))
		h.Write(buf)
	}
	w := trace.New(prog, seed)
	defer w.Release()
	take(w, pinOracleInsts, emit)
	for _, pc := range forkPCs(t, prog) {
		take(w.Fork(pc), pinForkInsts, emit)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// byNext takes n instructions one Next call at a time.
func byNext(w *trace.Walker, n int, emit func(isa.Inst)) {
	for i := 0; i < n; i++ {
		emit(w.Next())
	}
}

// byRun takes n instructions in runs, capping the k-th run at 1 + k%16
// instructions so runs end at every offset into a block.
func byRun(w *trace.Walker, n int, emit func(isa.Inst)) {
	var run []isa.Inst
	for k := 0; n > 0; k++ {
		run = w.AppendRun(run[:0], min(n, 1+k%16))
		for _, in := range run {
			emit(in)
		}
		n -= len(run)
	}
}

// pinnedStreams holds streamDigest of every profile's program, walked
// with the seed the harness gives its oracle.
var pinnedStreams = map[string]string{
	"cassandra":      "57ac8b4a0cad49632e5f519f2bcf9f480d0ca56ad9aec8575b4f8a67a08bf1b3",
	"tomcat":         "77a8a007e12f081dffe2dd8ea57be6c98e57b782f10f608bfaa74a4a8ed996fe",
	"kafka":          "329d104b74f26e3aa0deaef2c4e6111240c27e067f3d9ad25f93aa6966c67fcf",
	"xalan":          "0e6f59bbf187177adb7b0954d433bad1246ebdd925d6ebd7be4a20c8eec17ba3",
	"finagle-http":   "2616af339bc43100bed32281c35e1470ea7f64816a8fd8d3bb582832e599db05",
	"dotty":          "a5c7667e561f2ab8bfda72e7ccf645f39ddb55f3ed5d41e89d03a768f1ea20ed",
	"tpcc":           "88319acc1664f4afa1239eb8089e7aa6e78480cbb8e531ce7f0fd5e9c4c7cdd9",
	"ycsb":           "e1dcc82395b0f580e4b80a89e3ca698bf797ebf44d0067a9c66694781c2f5014",
	"twitter":        "d2600455697d4e146385a1a9b7463b90d9ff3f29cdb8b8aa7e60e45764d32641",
	"voter":          "71c599e4f5cbe550fb274357d3b658431ebc5fb39bb0918694fbd1a29fe83637",
	"smallbank":      "86fd4ffb9261a037ad94862f92a100300462601d55df6d94bbcbd086f034903e",
	"tatp":           "df4972fdd79412975b72183c35ae3596cad02122cd15ad0aa47a0ef6428125bc",
	"sibench":        "9fa20356d0d085d2e2970ee38dc087ae1f1aeaa54c322c8d3712610ba86c3544",
	"noop":           "da3e8da759a37a3231ccf5eae6ffa6ae01f5b318e2a32018255b692f217dc512",
	"verilator":      "3b2d671b13db7878ab4627ca92be4017ca5f1b798c7301786b2bc5fc269d9783",
	"speedometer2.0": "e258ee6b54b9c741de675c0feaf321b041dcf5baaea739577321cb173e3d9604",
}

// TestStreamsPinned pins the instruction streams themselves, taken both
// through Next and in runs: the first 200k oracle instructions of every
// registered program, then 20k instructions of a wrong path forked at a
// block start, mid-instruction and in alignment padding.
func TestStreamsPinned(t *testing.T) {
	for _, p := range workload.All() {
		prog, err := p.Program()
		if err != nil {
			t.Fatal(err)
		}
		seed := p.CFG.Seed ^ 0x5eed
		want := pinnedStreams[p.Name]
		if got := streamDigest(t, prog, seed, byNext); got != want {
			t.Errorf("%s: stream digest through Next %s, pinned %s", p.Name, got, want)
		}
		if got := streamDigest(t, prog, seed, byRun); got != want {
			t.Errorf("%s: stream digest in runs %s, pinned %s", p.Name, got, want)
		}
	}
}
