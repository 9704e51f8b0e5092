package champsim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pdip/internal/isa"
)

// FuzzChampSimDecode throws arbitrary bytes at the whole ingestion path:
// framing validation at open, record decoding, instruction
// reconstruction, and derived wrong-path fetch. Truncated, corrupted, and
// adversarially-sized inputs must come back as errors (or decode to
// *some* bounded instruction stream) — never a panic, never an over-read,
// never unbounded memory.
func FuzzChampSimDecode(f *testing.F) {
	// Seed with a genuine recorded mini-trace so the fuzzer starts from
	// structurally valid records (plus classic framing edge cases).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pcs := []isa.Inst{
		{PC: 0x1000, Size: 4},
		{PC: 0x1004, Size: 2, Kind: isa.CondDirect, Taken: true, Target: 0x2000},
		{PC: 0x2000, Size: 5, Kind: isa.DirectCall, Taken: true, Target: 0x3000},
		{PC: 0x3000, Size: 1, Kind: isa.Return, Taken: true, Target: 0x2005},
		{PC: 0x2005, Size: 4, Kind: isa.IndirectJump, Taken: true, Target: 0x1000},
	}
	for _, in := range pcs {
		if err := w.WriteInst(in); err != nil {
			f.Fatal(err)
		}
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-1])                       // truncated final record
	f.Add(full[:RecordSize])                        // single record
	f.Add([]byte{})                                 // empty trace
	f.Add(bytes.Repeat([]byte{0xFF}, 3*RecordSize)) // all-ones records

	f.Fuzz(func(t *testing.T, data []byte) {
		// The record codec itself must bound-check.
		if rec, err := DecodeRecord(data); err == nil {
			_ = rec.inst(isa.Addr(rec.IP) + 4)
		}

		path := filepath.Join(t.TempDir(), "fuzz.champsim")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := Open(path)
		if err != nil {
			// Malformed framing must be rejected at open.
			if len(data) > 0 && len(data)%RecordSize == 0 {
				t.Fatalf("well-framed %d-byte trace rejected: %v", len(data), err)
			}
			return
		}
		defer src.Close()
		// A decodable trace must stream (wrapping as needed) without
		// panicking or latching stream faults, whatever its contents.
		for i := 0; i < 512; i++ {
			in := src.Next()
			if i == 256 {
				// Exercise the derived wrong path from a mid-stream PC.
				take(src.ForkWrong(nil, in.PC), 64)
			}
		}
		if err := src.Err(); err != nil {
			t.Fatalf("valid framing latched a stream fault: %v", err)
		}
		// Checkpoint capture/restore must hold for arbitrary contents too.
		st := src.CaptureSource()
		re, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if err := re.RestoreSource(st); err != nil {
			t.Fatalf("restore of a live capture failed: %v", err)
		}
		for i := 0; i < 64; i++ {
			a, b := src.Next(), re.Next()
			if a != b {
				t.Fatalf("restored source diverged at %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
