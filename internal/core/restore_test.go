package core

import (
	"bytes"
	"reflect"
	"testing"

	"pdip/internal/bpu"
	"pdip/internal/cache"
	"pdip/internal/checkpoint"
	"pdip/internal/eip"
	"pdip/internal/fnlmma"
	"pdip/internal/isa"
	"pdip/internal/mem"
	"pdip/internal/pdip"
	"pdip/internal/prefetch"
	"pdip/internal/rng"
)

// restoreTenants builds a three-tenant socket's tenants: PDIP, EIP and
// FNL+MMA, so one snapshot carries every index-bearing prefetcher field.
func restoreTenants() []SocketTenant {
	pfs := []prefetch.Prefetcher{
		pdip.New(pdip.DefaultConfig()),
		eip.New(eip.DefaultConfig()),
		fnlmma.New(fnlmma.DefaultConfig()),
	}
	out := make([]SocketTenant, len(pfs))
	for i, pf := range pfs {
		seed := uint64(41 + i)
		c := testConfig(seed)
		c.Prefetcher = pf
		out[i] = SocketTenant{Prog: testProgram(seed), Config: c}
	}
	return out
}

func encodeState(t *testing.T, st *checkpoint.State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, st); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func decodeState(t *testing.T, b []byte) *checkpoint.State {
	t.Helper()
	st, err := checkpoint.DecodeBytes(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return st
}

// TestRestoreRejectsCorruptIndexes corrupts, one at a time, every field of
// a real snapshot that a restored socket would later use as an index, a
// ring position or a cached minimum. The wire format carries each
// corruption (the codec checks shape, not meaning), so the restore must
// refuse it with an error — never accept it and panic or misbehave later.
func TestRestoreRejectsCorruptIndexes(t *testing.T) {
	s, err := NewSocket(restoreTenants(), SocketConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(100_000); err != nil {
		t.Fatal(err)
	}
	// Step to a cycle with a queued prefetch, an MSHR file in use and a
	// uop in the ROB, so the PQ-trigger, MSHR-minimum and episode-index
	// cases have something to corrupt.
	var base []byte
	for step := 0; step < 2000 && base == nil; step++ {
		if err := s.Run(7); err != nil {
			t.Fatal(err)
		}
		st, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if ten := st.Tenants[0]; len(ten.PQ.Entries) > 0 && len(ten.Mem.L1D.Inflight) > 0 && len(ten.ROB.Uops) > 0 {
			base = encodeState(t, st)
		}
	}
	if base == nil {
		t.Fatal("no snapshot with both a queued prefetch and an in-flight L1D fill")
	}
	if _, err := NewSocketFromSnapshot(restoreTenants(), SocketConfig{}, decodeState(t, base)); err != nil {
		t.Fatalf("uncorrupted snapshot: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(st *checkpoint.State)
	}{
		{"uncore owner column", func(st *checkpoint.State) {
			for _, c := range []*checkpoint.CacheState{&st.Uncore.L2, &st.Uncore.L3} {
				for i := range c.Owner {
					c.Owner[i] = 9
				}
			}
		}},
		{"MSHR minimum", func(st *checkpoint.State) {
			l1d := &st.Tenants[0].Mem.L1D
			min := l1d.Inflight[0]
			for _, t := range l1d.Inflight {
				if t < min {
					min = t
				}
			}
			l1d.InflightMin = min + 1
		}},
		{"RAS top", func(st *checkpoint.State) {
			ras := &st.Tenants[0].BPU.RAS
			ras.Top = len(ras.Entries)
		}},
		{"RAS depth", func(st *checkpoint.State) {
			ras := &st.Tenants[0].BPU.RAS
			ras.Depth = len(ras.Entries) + 1
		}},
		{"PQ trigger", func(st *checkpoint.State) {
			st.Tenants[0].PQ.Entries[0].Trigger = 3
		}},
		{"PDIP target trigger", func(st *checkpoint.State) {
			st.Tenants[0].Prefetcher.PDIP.Targets[0].Trig = 3
		}},
		{"EIP history head", func(st *checkpoint.State) {
			e := st.Tenants[1].Prefetcher.EIP
			e.Head = len(e.Hist)
		}},
		{"EIP history size", func(st *checkpoint.State) {
			e := st.Tenants[1].Prefetcher.EIP
			e.Size = len(e.Hist) + 1
		}},
		{"FNL+MMA miss head", func(st *checkpoint.State) {
			f := st.Tenants[2].Prefetcher.FNLMMA
			f.MissHead = len(f.MissRing)
		}},
		{"uop episode index", func(st *checkpoint.State) {
			st.Tenants[0].ROB.Uops[0].EpisodeID = len(st.Tenants[0].Episodes)
		}},
		{"IFU episode index", func(st *checkpoint.State) {
			st.Tenants[0].IFU = &checkpoint.FTQEntryState{EpisodeIDs: []int{-1}}
		}},
		{"FTQ depth", func(st *checkpoint.State) {
			st.Tenants[0].FTQ = make([]checkpoint.FTQEntryState, 25)
		}},
		{"PQ capacity", func(st *checkpoint.State) {
			st.Tenants[0].PQ.Entries = make([]checkpoint.RequestState, 41)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := decodeState(t, base)
			tc.corrupt(st)
			st = decodeState(t, encodeState(t, st))
			if _, err := NewSocketFromSnapshot(restoreTenants(), SocketConfig{}, st); err == nil {
				t.Fatal("corrupted snapshot restored without error")
			}
		})
	}
}

// checkpointer is the Capture/Restore pair every checkpointed component
// exposes, over its own state type.
type checkpointer[S any] interface {
	CaptureCheckpoint() S
	RestoreCheckpoint(S) error
}

// checkDirtyRestore restores st into dirty (a component that has already
// run a different workload) and fresh (one built and never run), requires
// both to capture back to st exactly, then drives both through the same
// seeded operation stream and requires identical outputs and identical
// captures afterwards. A restore that leaves any old state behind — a
// stale column, an uncleared map, a live memo — fails here.
func checkDirtyRestore[S any, C checkpointer[S]](t *testing.T, what string, st S, dirty, fresh C, drive func(C, *rng.RNG) []any) {
	t.Helper()
	for _, c := range []struct {
		name string
		comp C
	}{{"dirty", dirty}, {"fresh", fresh}} {
		if err := c.comp.RestoreCheckpoint(st); err != nil {
			t.Fatalf("%s: %s restore: %v", what, c.name, err)
		}
		if got := c.comp.CaptureCheckpoint(); !reflect.DeepEqual(got, st) {
			t.Fatalf("%s: %s component does not capture back to the snapshot it was restored from", what, c.name)
		}
	}
	if a, b := drive(dirty, rng.New(99)), drive(fresh, rng.New(99)); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: dirty and fresh restores behave differently", what)
	}
	if !reflect.DeepEqual(dirty.CaptureCheckpoint(), fresh.CaptureCheckpoint()) {
		t.Fatalf("%s: dirty and fresh restores end in different states", what)
	}
}

// driveCache runs a seeded mix of demand accesses, fills, promotions and
// MSHR queries over lines resident in st and random ones, at cycles
// around st's in-flight window.
func driveCache(st checkpoint.CacheState) func(*cache.Cache, *rng.RNG) []any {
	return func(c *cache.Cache, r *rng.RNG) []any {
		var lines []isa.Addr
		now := int64(0)
		for k, tag := range st.Tag {
			if st.Valid.Get(k) && len(lines) < 256 {
				lines = append(lines, isa.Addr(tag<<isa.LineShift))
			}
			now = max(now, st.ReadyAt[k])
		}
		for len(lines) < 512 {
			lines = append(lines, isa.Addr(r.Intn(1<<20))*isa.LineSize)
		}
		now -= 100
		owners := len(st.Owners)
		var out []any
		for i := 0; i < 4000; i++ {
			line := lines[r.Intn(len(lines))]
			switch r.Intn(5) {
			case 0:
				out = append(out, c.Access(line, now, cache.Class(r.Intn(2))))
			case 1:
				if !c.Contains(line) {
					opts := cache.FillOpts{Prefetch: r.Bool(0.5), Priority: r.Bool(0.3)}
					if owners > 0 {
						opts.Owner = uint8(r.Intn(owners))
					}
					ev, had := c.Fill(line, now, now+int64(r.Intn(60)), opts)
					out = append(out, ev, had)
				}
			case 2:
				c.Promote(line)
			case 3:
				out = append(out, c.MSHRFree(now), c.EarliestMSHRFree(now))
				if owners > 0 {
					o := r.Intn(owners)
					out = append(out, c.OwnerCanIssue(now, o), c.EarliestMSHRFreeFor(now, o))
				}
			default:
				now += int64(r.Intn(8))
			}
		}
		return append(out, c.PriorityLines())
	}
}

// driveBPU predicts and trains a seeded stream of branches over a fixed
// pool of branch sites of every kind.
func driveBPU(b *bpu.BPU, r *rng.RNG) []any {
	kinds := []isa.BranchKind{isa.CondDirect, isa.UncondDirect, isa.DirectCall, isa.IndirectJump, isa.IndirectCall, isa.Return}
	var out []any
	for i := 0; i < 4000; i++ {
		site := r.Intn(256)
		pc := isa.Addr(0x40_0000 + site*24)
		in := isa.Inst{PC: pc, Size: 4, Kind: kinds[site%len(kinds)], Taken: true,
			Target: isa.Addr(0x40_0000 + r.Intn(4)*0x1000 + site*8)}
		if in.Kind == isa.CondDirect {
			in.Taken = r.Bool(0.6)
		}
		out = append(out, b.PredictAndTrain(in))
	}
	return out
}

// portFunc adapts a function to mem.Port.
type portFunc func(mem.Req) mem.AccessResult

func (f portFunc) Send(req mem.Req) mem.AccessResult { return f(req) }

// drivePQ enqueues, drains (into a port whose drops depend only on the
// line) and flushes a seeded request stream.
func drivePQ(q *prefetch.Queue, r *rng.RNG) []any {
	port := portFunc(func(req mem.Req) mem.AccessResult {
		switch (req.Line >> isa.LineShift) % 5 {
		case 0:
			return mem.AccessResult{Dropped: true, Reason: mem.DropPresent}
		case 1:
			return mem.AccessResult{Dropped: true, Reason: mem.DropMSHR}
		}
		return mem.AccessResult{Done: req.At + 20}
	})
	var out []any
	for now := int64(0); now < 3000; now++ {
		for n := r.Intn(3); n > 0; n-- {
			q.Enqueue(prefetch.Request{Line: isa.Addr(r.Intn(4096)) * isa.LineSize, Trigger: prefetch.TriggerKind(r.Intn(3))})
		}
		q.Drain(port, now, nil)
		if r.Intn(100) == 0 {
			q.Flush()
		}
		out = append(out, q.Len(), q.Stats)
	}
	return out
}

// drivePrefetcher feeds a seeded stream of FTQ insertions, line
// retirements and calls/returns over lines of prog, collecting every
// request the prefetcher emits.
func drivePrefetcher(lines []isa.Addr) func(pf prefetch.Checkpointer, r *rng.RNG) []any {
	return func(c prefetch.Checkpointer, r *rng.RNG) []any {
		pf := c.(prefetch.Prefetcher)
		var out []any
		for now := int64(0); now < 4000; now++ {
			line := lines[r.Intn(len(lines))]
			switch r.Intn(3) {
			case 0:
				out = append(out, pf.OnFTQInsert(line, nil))
			case 1:
				miss := r.Bool(0.5)
				pf.OnLineRetired(prefetch.RetireEvent{
					Line: line, Missed: miss, FetchCycle: now, FetchLatency: int64(r.Intn(200)),
					StarveCycles: r.Intn(30), BackendEmpty: r.Bool(0.7), FEC: miss && r.Bool(0.8),
					HighCost: r.Bool(0.7), ResteerTrigger: lines[r.Intn(len(lines))] * isa.Addr(r.Intn(2)),
					ResteerWasReturn: r.Bool(0.2), LastTakenBlock: lines[r.Intn(len(lines))],
				})
			default:
				if cr, ok := pf.(interface {
					OnCallReturn(isCall bool, pc, returnAddr isa.Addr)
				}); ok {
					cr.OnCallReturn(r.Bool(0.5), line, line+isa.LineSize)
				}
			}
			if e, ok := pf.(prefetch.RetireEmitter); ok {
				out = append(out, e.TakePending(nil))
			}
		}
		return out
	}
}

// TestDirtyRestoreEqualsFresh pins that every copy-based restore
// overwrites everything: restoring one snapshot into a component that has
// already run a different workload (another program and seed, same
// geometry) is indistinguishable from restoring it into a freshly built
// one. It covers the private caches, the owner-tracked shared caches, the
// BPU, the PQ and every prefetcher kind.
func TestDirtyRestoreEqualsFresh(t *testing.T) {
	for name, mk := range prefetcherKinds {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			build := func(seed uint64) *Core {
				c := testConfig(seed)
				c.Prefetcher = mk()
				return MustNew(testProgram(seed), c)
			}
			src, dirty, fresh := build(12), build(21), build(12)
			if err := src.Run(30011); err != nil {
				t.Fatal(err)
			}
			if err := dirty.Run(45007); err != nil {
				t.Fatal(err)
			}
			st, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ts := &st.Tenants[0]
			var lines []isa.Addr
			for _, b := range src.prog.Blocks[:512] {
				lines = append(lines, b.Addr.Line())
			}
			checkDirtyRestore(t, "prefetcher", ts.Prefetcher, dirty.pf.(prefetch.Checkpointer), fresh.pf.(prefetch.Checkpointer), drivePrefetcher(lines))
			checkDirtyRestore(t, "L1I", ts.Mem.L1I, dirty.hier.L1I, fresh.hier.L1I, driveCache(ts.Mem.L1I))
			checkDirtyRestore(t, "L1D", ts.Mem.L1D, dirty.hier.L1D, fresh.hier.L1D, driveCache(ts.Mem.L1D))
			checkDirtyRestore(t, "BPU", ts.BPU, dirty.bp, fresh.bp, driveBPU)
			checkDirtyRestore(t, "PQ", ts.PQ, dirty.pq, fresh.pq, drivePQ)
		})
	}
	t.Run("owner-tracked", func(t *testing.T) {
		t.Parallel()
		src, err := NewSocket(socketTenants(31, 32), SocketConfig{})
		if err != nil {
			t.Fatal(err)
		}
		dirty, err := NewSocket(socketTenants(33, 34), SocketConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSocket(socketTenants(31, 32), SocketConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Run(30011); err != nil {
			t.Fatal(err)
		}
		if err := dirty.Run(45007); err != nil {
			t.Fatal(err)
		}
		st, err := src.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		checkDirtyRestore(t, "L2", st.Uncore.L2, dirty.unc.L2, fresh.unc.L2, driveCache(st.Uncore.L2))
		checkDirtyRestore(t, "L3", st.Uncore.L3, dirty.unc.L3, fresh.unc.L3, driveCache(st.Uncore.L3))
	})
}
