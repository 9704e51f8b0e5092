package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pdip/internal/isa"
)

// sampleCache fills one cache level with non-trivial values in every
// column, including the owner-attribution columns when owned is set.
func sampleCache(sets, ways int, owned bool) CacheState {
	n := sets * ways
	c := CacheState{
		Sets: sets, Ways: ways,
		Tag:         make([]uint64, n),
		LRU:         make([]uint32, n),
		ReadyAt:     make([]int64, n),
		Valid:       make(Bitmask, BitmaskBytes(n)),
		Priority:    make(Bitmask, BitmaskBytes(n)),
		Prefetched:  make(Bitmask, BitmaskBytes(n)),
		Tick:        77,
		Inflight:    []int64{250, 90, 100},
		InflightMin: 90,
		Stats: CacheStats{
			Accesses: 10, Misses: 3, InstMisses: 2, DataMisses: 1,
			LateHits: 1, Fills: 3, PrefetchFills: 2, UsefulPrefetches: 1,
			LatePrefetches: 1, UselessPrefetches: 1, Evictions: 2,
		},
	}
	for i := 0; i < n; i++ {
		c.Tag[i] = uint64(0x1000 + 64*i)
		c.LRU[i] = uint32(n - i)
		c.ReadyAt[i] = int64(50 - 3*i)
		if i%2 == 0 {
			c.Valid.Set(i)
		}
		if i%3 == 0 {
			c.Priority.Set(i)
		}
		if i%5 == 0 {
			c.Prefetched.Set(i)
		}
	}
	if owned {
		c.Owner = make([]uint8, n)
		for i := range c.Owner {
			c.Owner[i] = uint8(i % 3)
		}
		c.InflightOwner = []uint8{0, 1, 1}
		c.Owners = []OwnerStats{
			{Fills: 5, MSHRSteals: 1, DelayedFills: 2, DelayCycles: 9,
				SpecDropped: 1, CrossEvictionsSuffered: 1, CrossEvictionsCaused: 2},
			{Fills: 3},
		}
	}
	return c
}

// prefetcherKinds names every samplePrefetcher kind, "none" included.
var prefetcherKinds = []string{"none", "pdip", "eip", "rdip", "fnlmma", "nextline"}

// samplePrefetcher builds a populated PrefetcherState for the given kind.
func samplePrefetcher(kind string) PrefetcherState {
	switch kind {
	case "pdip":
		return PrefetcherState{Kind: "pdip", PDIP: &PDIPState{
			Entries: []PDIPEntryState{{Valid: true, Tag: 7, LRU: 1}, {}, {Valid: true, Tag: 9, LRU: 4}},
			Targets: []PDIPTargetState{
				{Valid: true, Base: 0x5000, Mask: 0b101, Trig: 1, LRU: 2},
				{}, {}, {},
				{Valid: true, Base: 0x5040, Mask: 0b1, LRU: 3},
				{},
			},
			Tick: 3, Rng: 99,
			Stats: PDIPStats{InsertAttempts: 5, InsertFiltered: 1, InsertNoTrigger: 1,
				InsertReturnSkipped: 1, Inserted: 2, MaskMerged: 1, Lookups: 10, Hits: 4},
		}}
	case "eip":
		return PrefetcherState{Kind: "eip", EIP: &EIPState{
			Hist: []EIPHistEntry{{Line: 0x40, Cycle: 10}, {Line: 0x80, Cycle: 12}},
			Head: 1, Size: 2,
			Sets: [][]EIPEntryState{
				{{Valid: true, Tag: 3, LRU: 1, Dsts: []isa.Addr{0x100, 0x140}}},
				nil,
			},
			Anal:  []EIPAnalEntry{{Src: 0x40, Dsts: []isa.Addr{0x80}}, {Src: 0x80, Dsts: []isa.Addr{0xc0, 0x100}}},
			Tick:  5,
			Stats: EIPStats{Entangled: 4, NoSource: 1, Lookups: 9, Hits: 3},
		}}
	case "rdip":
		return PrefetcherState{Kind: "rdip", RDIP: &RDIPState{
			Sets: [][]RDIPEntryState{
				{{Valid: true, Tag: 2, LRU: 1, Lines: []isa.Addr{0x200, 0x240}}},
			},
			Tick: 2, RAS: []isa.Addr{0x300, 0x340}, Sig: 0xabcdef,
			Pending: []RequestState{{Line: 0x400, Trigger: 2}},
			Stats:   RDIPStats{ContextSwitches: 3, Recorded: 7, Hits: 2},
		}}
	case "fnlmma":
		return PrefetcherState{Kind: "fnlmma", FNLMMA: &FNLMMAState{
			Worth:    []uint8{0, 2, 1},
			MMATag:   []uint32{4, 5},
			MMADst:   []isa.Addr{0x500, 0x540},
			MissRing: []isa.Addr{0x600, 0x680},
			MissHead: 1,
			Pending:  []RequestState{{Line: 0x640, Trigger: 1}},
			Stats:    FNLMMAStats{FNLEmitted: 6, MMAEmitted: 2, Trained: 8},
		}}
	case "nextline":
		return PrefetcherState{Kind: "nextline", NextLine: &NextLineState{
			Degree:  2,
			Pending: []RequestState{{Line: 0x700, Trigger: 0}},
		}}
	default:
		return PrefetcherState{Kind: kind}
	}
}

// sampleState hand-builds a one-tenant State exercising every section of
// the wire format: optional pointers present, every column type
// non-empty (the uncore carries owner columns too), both walker and
// trace-replay source kinds, and shared episodes. The slices are
// nil-or-non-empty on purpose — the decoder materialises empty columns as
// nil, and reflect.DeepEqual distinguishes nil from []T{}.
func sampleState() *State {
	return &State{
		Version: FormatVersion,
		Now:     12345,
		Uncore: UncoreState{
			L2: sampleCache(4, 2, true),
			L3: sampleCache(4, 4, true),
			Metrics: RegistryState{
				Counters: []NamedCounter{{Name: "uncore.tenant0.requests", Value: 42}},
			},
		},
		Tenants: []TenantState{sampleTenant()},
	}
}

// sampleTwoTenantState builds an owner-tracked two-tenant socket with a
// shared prefetcher table and distinguishable tenants.
func sampleTwoTenantState() *State {
	st := sampleState()
	st.SharedPrefetcher = true
	b := sampleTenant()
	b.Core.Seq = 123
	b.Prefetcher = samplePrefetcher("eip")
	st.Tenants = append(st.Tenants, b)
	return st
}

// sampleSocketStates returns owner-tracked multi-tenant states: two
// tenants on a shared prefetcher table, two with per-core tables, and
// three with per-core tables.
func sampleSocketStates() []*State {
	shared := sampleTwoTenantState()
	perCore := sampleTwoTenantState()
	perCore.SharedPrefetcher = false
	perCore.Tenants[1].Prefetcher = samplePrefetcher("rdip")
	three := sampleTwoTenantState()
	three.SharedPrefetcher = false
	c := sampleTenant()
	c.Core.Seq = 456
	c.Prefetcher = samplePrefetcher("fnlmma")
	three.Tenants = append(three.Tenants, c)
	return []*State{shared, perCore, three}
}

// sampleTenant hand-builds one core's TenantState.
func sampleTenant() TenantState {
	var st TenantState
	st.Core = CoreState{
		Now: 12345, Seq: 99, Retired: 88,
		HasResteer: true, Resteer: ResteerState{At: 12350, Target: 0x4000,
			Trigger: 0x4040, Cause: 2},
		IAGResumeAt: 12351, ShadowTrigger: 0x80, ShadowWasReturn: true,
		ShadowLeft: 3, LastTakenBlock: 0x1000,
		Promoted:    []isa.Addr{0x40, 0x80, 0x100},
		FECEver:     []isa.Addr{0x40},
		PFSet:       []PFSetEntry{{Line: 0x40, Cycle: 10}, {Line: 0x80, Cycle: 12}},
		FECReqAge:   [4]uint64{1, 2, 3, 4},
		FECHolds:    [3]uint64{5, 6, 7},
		SampleEvery: 1000, DataRng: 777, PromoRng: 888,
	}
	st.Metrics = RegistryState{
		Counters:   []NamedCounter{{Name: "a.x", Value: 1}, {Name: "b.y", Value: 2}},
		Gauges:     []NamedGauge{{Name: "g", Value: 1.5}},
		Histograms: []HistogramState{{Name: "h", Counts: []uint64{1, 0, 3}, Total: 4, Sum: 9.5}},
	}
	st.Mem = HierarchyState{
		L1I: sampleCache(2, 2, false),
		L1D: sampleCache(2, 2, false),
	}
	st.BPU = BPUState{
		TAGE: TAGEState{
			Base: []int8{-2, -1, 0, 1},
			Tables: [][]TAGEEntry{
				{{Tag: 9, Ctr: -1, Useful: 1}, {Tag: 3, Ctr: 2}},
				{{Tag: 1, Useful: 3}},
			},
			HistBits: []bool{true, false, true, true},
			HistHead: 2,
			IdxFold:  []uint32{5, 6}, TagFold: []uint32{7, 8}, Tg2Fold: []uint32{9, 10},
			UseAltOnNa: -3, AllocSeed: 0xdeadbeef,
		},
		ITTAGE: ITTAGEState{
			Base:     []isa.Addr{0x100, 0x200},
			Tables:   [][]ITTAGEEntry{{{Tag: 4, Target: 0x300, Ctr: 1, Useful: 2}}},
			HistBits: []bool{false, true},
			HistHead: 1,
			IdxFold:  []uint32{1}, TagFold: []uint32{2},
			AllocSeed: 42,
		},
		BTB: BTBState{Sets: 2, Ways: 2, Entries: []BTBEntryState{
			{Valid: true, Tag: 10, Target: 0x400, Kind: isa.CondDirect, LRU: 1},
			{},
			{Valid: true, Tag: 11, Target: 0x500, Kind: isa.Return, LRU: 2},
			{Valid: true, Tag: 12, Target: 0x600, Kind: isa.IndirectCall, LRU: 3},
		}, Tick: 4},
		RAS: RASState{Entries: []isa.Addr{0x700, 0x800, 0}, Top: 1, Depth: 2},
		Stats: BPUStats{CondBranches: 50, CondMispredict: 5, BTBLookups: 80,
			BTBMissTaken: 8, IndBranches: 7, IndMispredict: 2, Returns: 6, RetMispredict: 1},
	}
	st.IAG = IAGState{
		Oracle: SourceState{
			Kind: SourceChampSim,
			Walker: &WalkerState{Rng: 1, Stack: []isa.Addr{0x10, 0x20},
				LoopCnt: []LoopCount{{Block: 0, Count: 3}, {Block: 2, Count: 1}}, CurBlock: 7, InstIdx: 2, LostPC: 0x30,
				DispatchCenter: 5, Count: 999},
			ChampSim: &ChampSimState{Count: 1234, Primed: true,
				Decode: []ChampSimDecodeEntry{
					{Slot: 3, PC: 0x40, Size: 4, Kind: 1, Taken: true, Target: 0x50},
					{Slot: 9, PC: 0x60, Size: 2},
				},
				RAS: []isa.Addr{0x70}, PC: 0x80},
		},
		Wrong: &SourceState{Kind: SourceCFG,
			Walker: &WalkerState{Rng: 2, CurBlock: -1, LostPC: 0x90, WrongPath: true, Count: 55}},
		PendingMispredict: true,
	}
	st.Episodes = []EpisodeState{
		{Line: 0x1000, WrongPath: true, Missed: true, ServedBy: 2, FetchCycle: 100,
			DoneCycle: 150, Starve: 3, BackendEmpty: true, WasPrefetch: true,
			ResteerTrigger: 0x1040, ResteerWasReturn: true, Refs: 2},
		{Line: 0x1040, Processed: true, Refs: 1},
	}
	insts := []isa.Inst{
		{PC: 0x2000, Size: 4},
		{PC: 0x2004, Size: 2, Kind: isa.CondDirect, Taken: true, Target: 0x2100},
	}
	st.FTQ = []FTQEntryState{{
		Insts: insts, Start: 0x2000, Lines: []isa.Addr{0x2000, 0x2040},
		HasBranch: true, Pred: Prediction{Taken: true, Target: 0x2100, BTBHit: true},
		Mispredict: true, Cause: 1, ResolveAtDecode: true, CorrectTarget: 0x2200,
		ShadowTrigger: 0x2004, ShadowWasReturn: true, ReadyAt: 120,
	}}
	st.IFU = &FTQEntryState{
		Insts: insts[:1:1], Start: 0x3000, Lines: []isa.Addr{0x3000}, WrongPath: true,
		EpisodeIDs: []int{0, 1}, ReadyAt: 130,
	}
	st.DecodeQ = []UopState{{
		Inst: insts[0], Seq: 5, WrongPath: true, EpisodeID: 0, IsMemOp: true,
		DataLine: 0x9000, DoneAt: 140, AvailableAt: 135,
	}}
	st.ROB = ROBState{
		Uops: []UopState{{
			Inst: insts[1], Seq: 6, EpisodeID: -1, Mispredict: true, ResolveAtDecode: true,
			Cause: 2, CorrectTarget: 0x2200, TriggerBlock: 0x2000, DoneAt: 160, AvailableAt: 150,
		}},
		Stats: ROBStats{Pushed: 10, Retired: 8, Squashed: 1},
	}
	st.PQ = QueueState{
		Entries: []RequestState{{Line: 0x4000, Trigger: 1}, {Line: 0x4040}},
		Stats: QueueStats{Enqueued: 9, DroppedQueueFull: 1, Issued: 7,
			DroppedPresent: 1, DroppedMSHR: 1, ByTrigger: [3]uint64{3, 4, 2}},
	}
	st.Prefetcher = samplePrefetcher("pdip")
	return st
}

// encodeState is a test helper returning st's wire bytes.
func encodeState(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestBinaryRoundTrip pushes a fully populated one-tenant state through
// the binary codec and requires an exact structural match back.
func TestBinaryRoundTrip(t *testing.T) {
	st := sampleState()
	got, err := DecodeBytes(encodeState(t, st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Errorf("binary round trip is lossy:\n in: %+v\nout: %+v", st, got)
	}
}

// TestBinarySocketRoundTrip round-trips the multi-tenant states of
// sampleSocketStates through the same codec.
func TestBinarySocketRoundTrip(t *testing.T) {
	for _, st := range sampleSocketStates() {
		got, err := DecodeBytes(encodeState(t, st))
		if err != nil {
			t.Fatalf("%d tenants: decode: %v", len(st.Tenants), err)
		}
		if !reflect.DeepEqual(st, got) {
			t.Errorf("%d tenants: socket round trip is lossy:\n in: %+v\nout: %+v", len(st.Tenants), st, got)
		}
	}
}

// TestBinaryRoundTripAllPrefetchers round-trips each prefetcher kind's
// sub-state through its dedicated wire section.
func TestBinaryRoundTripAllPrefetchers(t *testing.T) {
	for _, kind := range prefetcherKinds {
		st := sampleState()
		st.Tenants[0].Prefetcher = samplePrefetcher(kind)
		got, err := DecodeBytes(encodeState(t, st))
		if err != nil {
			t.Fatalf("%s: decode: %v", kind, err)
		}
		if !reflect.DeepEqual(st.Tenants[0].Prefetcher, got.Tenants[0].Prefetcher) {
			t.Errorf("%s: prefetcher state round trip is lossy:\n in: %+v\nout: %+v",
				kind, st.Tenants[0].Prefetcher, got.Tenants[0].Prefetcher)
		}
	}
}

// binarySampleDigest pins the exact wire bytes of sampleState's encoding.
// The encoder is required to be a pure function of the state — same state,
// same bytes, across processes and Go versions — because the disk store is
// content-addressed and the fabric's warm-once leases assume one canonical
// encoding per tuple. If this digest changes, the wire format changed:
// bump FormatVersion (so stale directories miss instead of misdecoding)
// and re-pin.
const binarySampleDigest = "aa551d189f552e8b616b2a1064b366186e0395f7d9ec7ed14b127d33d45b33a7"

// TestBinaryDeterministicBytes requires byte-identical encodings across
// repeated encodes, across a decode/re-encode round trip, and across time
// (the pinned digest).
func TestBinaryDeterministicBytes(t *testing.T) {
	st := sampleState()
	a := encodeState(t, st)
	if !bytes.Equal(a, encodeState(t, st)) {
		t.Error("two encodings of the same state differ (nondeterministic encoder)")
	}
	dec, err := DecodeBytes(a)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(a, encodeState(t, dec)) {
		t.Error("re-encoding a decoded state changed the bytes (non-canonical decode)")
	}
	if got := hex.EncodeToString(sum256(a)); got != binarySampleDigest {
		t.Errorf("wire format drifted: sample encoding digest = %s, pinned %s\n"+
			"(if the change is intentional, bump FormatVersion and re-pin)", got, binarySampleDigest)
	}
	if len(a) < 5 || a[0] != 'P' || a[1] != 'D' || a[2] != 'C' || a[3] != 'K' {
		t.Errorf("encoding does not start with the PDCK magic: % x", a[:5])
	}
}

func sum256(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

// TestBinaryDecodeTruncated feeds every proper prefix of a valid encoding
// to the decoder: each must fail with an error — never panic, never
// half-succeed.
func TestBinaryDecodeTruncated(t *testing.T) {
	full := encodeState(t, sampleState())
	for n := 0; n < len(full); n++ {
		if _, err := DecodeBytes(full[:n:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte prefix of a %d-byte encoding", n, len(full))
		}
	}
}

// TestBinaryVersionMismatch pins the refusal path for snapshots from a
// different format version.
func TestBinaryVersionMismatch(t *testing.T) {
	st := sampleState()
	st.Version = FormatVersion + 1
	if _, err := DecodeBytes(encodeState(t, st)); err == nil {
		t.Error("decode accepted a stream with a future format version")
	}
}

// TestSamplesSetEveryField requires every field reachable from State to be
// non-zero in at least one codec sample (sampleState, sampleSocketStates,
// and each samplePrefetcher kind). The wire layout follows the struct
// declarations with no codec edit, so this is what keeps the round-trip
// tests exhaustive: a field no sample sets could be dropped or garbled by
// the codec without any round trip noticing.
func TestSamplesSetEveryField(t *testing.T) {
	set := map[string]bool{}
	var declare func(t reflect.Type)
	declare = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			declare(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if k := t.String() + "." + t.Field(i).Name; !set[k] {
					set[k] = false
					declare(t.Field(i).Type)
				}
			}
		}
	}
	declare(reflect.TypeFor[State]())
	var observe func(v reflect.Value)
	observe = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				observe(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				observe(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if !v.Field(i).IsZero() {
					set[v.Type().String()+"."+v.Type().Field(i).Name] = true
				}
				observe(v.Field(i))
			}
		}
	}
	observe(reflect.ValueOf(sampleState()))
	for _, st := range sampleSocketStates() {
		observe(reflect.ValueOf(st))
	}
	for _, kind := range prefetcherKinds {
		p := samplePrefetcher(kind)
		observe(reflect.ValueOf(&p))
	}
	var zero []string
	for k, ok := range set {
		if !ok {
			zero = append(zero, k)
		}
	}
	sort.Strings(zero)
	for _, k := range zero {
		t.Errorf("%s is zero in every codec sample: set it in sampleTenant or samplePrefetcher", k)
	}
}

// TestPlanRejectsUncarriableFields pins the plan build's refusals: a field
// of a type the wire cannot carry, or a misplaced or malformed ckpt tag,
// fails with an error naming the field path.
func TestPlanRejectsUncarriableFields(t *testing.T) {
	type inner struct{ M map[int]int }
	for _, c := range []struct {
		v    any
		path string
	}{
		{struct{ A inner }{}, "X.A.M"},
		{struct{ F func() }{}, "X.F"},
		{struct{ I any }{}, "X.I"},
		{struct{ C *chan int }{}, "X.C"},
		{struct{ U uint }{}, "X.U"},
		{struct {
			X uint64 `ckpt:"delta"`
		}{}, "X.X"},
		{struct {
			S []struct {
				V uint32 `ckpt:"delta"`
			}
		}{}, "X.S[].V"},
		{struct {
			S []struct {
				In struct {
					V uint64 `ckpt:"delta"`
				}
			}
		}{}, "X.S[].In.V"},
		{struct {
			B uint8 `ckpt:"sec=256"`
		}{}, "X.B"},
		{struct {
			B uint8 `ckpt:"bits"`
		}{}, "X.B"},
	} {
		_, err := compile(reflect.TypeOf(c.v), "X", false)
		if err == nil || !strings.Contains(err.Error(), c.path+":") {
			t.Errorf("compile(%T) = %v, want an error naming %s", c.v, err, c.path)
		}
	}
}
