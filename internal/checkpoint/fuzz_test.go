package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzBinaryCheckpointDecode throws arbitrary bytes at the decode path —
// the exact bytes an on-disk checkpoint file feeds it. The decoder must
// never panic or over-allocate on hostile input (truncated sections, lying
// counts, bad intern refs, foreign or stale headers), and anything it does
// accept must re-encode canonically: encode(decode(b)) decodes again to
// the same bytes, the property the content-addressed store depends on.
// The corpus seeds one-tenant states and owner-tracked two-tenant states.
func FuzzBinaryCheckpointDecode(f *testing.F) {
	encode := func(st *State) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, kind := range []string{"pdip", "none", "eip", "rdip", "fnlmma", "nextline"} {
		one := sampleState()
		one.Tenants[0].Prefetcher = samplePrefetcher(kind)
		f.Add(encode(one))
		two := sampleTwoTenantState()
		two.Tenants[1].Prefetcher = samplePrefetcher(kind)
		f.Add(encode(two))
	}
	minimal := &State{Version: FormatVersion, Tenants: make([]TenantState, 1)}
	minimal.Tenants[0].IAG.Oracle = SourceState{Kind: SourceCFG, Walker: &WalkerState{}}
	f.Add(encode(minimal))
	future := sampleState()
	future.Version = FormatVersion + 1
	f.Add(encode(future))
	full := encode(sampleTwoTenantState())
	f.Add(full[:len(full)/2])
	f.Add([]byte("PDCK"))
	f.Add([]byte{0x1f, 0x8b, 0x00}) // a gzip header: pre-binary store files
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeBytes(data)
		if err != nil {
			return // rejected, and did not panic: fine
		}
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			t.Fatalf("re-encode of an accepted decode failed: %v", err)
		}
		st2, err := DecodeBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		var buf2 bytes.Buffer
		if err := Encode(&buf2, st2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Error("decode→encode is not canonical: two re-encode passes disagree")
		}
	})
}

// FuzzBinarySocketDecode fuzzes the multi-tenant framing of the same
// decoder. The intern table spans the whole stream, so a tenant's
// strings may be back-references into an earlier tenant's section; a
// tenant must still decode to the same state wherever it sits. Every
// accepted stream is re-encoded with its tenants reversed, decoded,
// reversed back, and must re-encode to the bytes of the original decode.
func FuzzBinarySocketDecode(f *testing.F) {
	for _, st := range sampleSocketStates() {
		var buf bytes.Buffer
		if err := Encode(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeBytes(data)
		if err != nil {
			return
		}
		reversed := *st
		n := len(st.Tenants)
		reversed.Tenants = make([]TenantState, n)
		for i := range st.Tenants {
			reversed.Tenants[n-1-i] = st.Tenants[i]
		}
		back, err := DecodeBytes(encodeState(t, &reversed))
		if err != nil {
			t.Fatalf("tenant-reversed re-encoding does not decode: %v", err)
		}
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			back.Tenants[i], back.Tenants[j] = back.Tenants[j], back.Tenants[i]
		}
		if !bytes.Equal(encodeState(t, st), encodeState(t, back)) {
			t.Error("a tenant decodes differently at another position in the stream")
		}
	})
}
