package core

import (
	"fmt"
	"sort"

	"pdip/internal/cfg"
	"pdip/internal/checkpoint"
	"pdip/internal/frontend"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

// Snapshot captures the complete socket at a cycle boundary: every
// structure whose contents influence future simulated behaviour or final
// metrics — the shared uncore exactly once, then every core as a tenant
// child. A socket restored from the snapshot (NewSocketFromSnapshot)
// replays bit-identically to this one — that property is what lets the
// harness warm a configuration once and fork the warm state across
// measure-phase variants. With SharedPrefetcher the one table is captured
// inside each tenant's Prefetcher section; the copies are identical (same
// instance, same instant) and the last restore wins harmlessly.
//
// Deliberately not captured (and safe to omit):
//
//   - The uop/episode/FTQ-entry free pools and the retired wrong-path
//     walker (pool.go, IAG.free/wrongFree): recycled objects are reset
//     field-for-field to zero, so an empty pool is behaviourally
//     identical to a warm one.
//   - TAGE/ITTAGE index memos: pure caches, recomputed on demand.
//   - Per-stage scratch: invariant bookkeeping (decodeStage.lastSeq,
//     prefetchDrainStage.lastTick; a restore resets it) and within-cycle
//     buffers (reqBuf, retireBuf), empty at every cycle boundary.
//   - Interval samples: measurement output, cleared by ResetStats; warm
//     cores have sampling disabled.
//
// simlint's checkpointcoverage analyzer walks the socket's type tree
// against the manifest in checkpoint_manifest.go and fails when a field is
// neither captured nor on the explicit skip list, so future state
// additions cannot silently desynchronize this format.
func (s *Socket) Snapshot() (*checkpoint.State, error) {
	if s.unc == nil {
		panic("core: Snapshot of a released socket")
	}
	st := &checkpoint.State{
		Version:          checkpoint.FormatVersion,
		Now:              s.now,
		SharedPrefetcher: s.cfg.SharedPrefetcher,
		Uncore:           s.unc.CaptureCheckpoint(),
		Tenants:          make([]checkpoint.TenantState, len(s.cores)),
	}
	for i, co := range s.cores {
		if err := co.capture(&st.Tenants[i]); err != nil {
			return nil, fmt.Errorf("socket: tenant %d: %w", i, err)
		}
	}
	return st, nil
}

// Snapshot captures the core's socket (see Socket.Snapshot) — for a core
// built by New, a one-tenant state that NewFromSnapshot forks.
func (co *Core) Snapshot() (*checkpoint.State, error) { return co.sock.Snapshot() }

// capture fills st with the core's own state (everything but the uncore).
func (co *Core) capture(st *checkpoint.TenantState) error {
	ck, ok := co.pf.(prefetch.Checkpointer)
	if !ok {
		return fmt.Errorf("core: prefetcher %q does not implement prefetch.Checkpointer", co.pf.Name())
	}

	// Deduplicate live episodes in deterministic first-encounter order:
	// decode-latch uops (oldest first), then ROB uops (oldest first), then
	// the in-flight IFU entry's episode list. Episodes are shared between
	// the uops of one fetch group, so identity (not value) must survive
	// the round trip for the Refs-based recycling to keep working.
	epIdx := make(map[*frontend.LineEpisode]int)
	var eps []*frontend.LineEpisode
	epID := func(ep *frontend.LineEpisode) int {
		if id, ok := epIdx[ep]; ok {
			return id
		}
		id := len(eps)
		epIdx[ep] = id
		eps = append(eps, ep)
		return id
	}
	for i := 0; i < co.decodeQ.Len(); i++ {
		if u := co.decodeQ.At(i); u.Ep != nil {
			epID(u.Ep)
		}
	}
	co.rob.ForEach(func(u *frontend.Uop) {
		if u.Ep != nil {
			epID(u.Ep)
		}
	})
	if co.ifuEntry != nil {
		for _, ep := range co.ifuEntry.Episodes {
			epID(ep)
		}
	}

	*st = checkpoint.TenantState{
		Core: co.captureCoreState(),
		Mem:  co.hier.CaptureCheckpoint(),
		BPU:  co.bp.CaptureCheckpoint(),
		IAG:  co.iag.CaptureCheckpoint(),
	}

	st.Episodes = make([]checkpoint.EpisodeState, len(eps))
	for i, ep := range eps {
		st.Episodes[i] = ep.EpisodeState
	}
	st.FTQ = co.ftq.CaptureCheckpoint(epID)
	if co.ifuEntry != nil {
		e := co.ifuEntry.CaptureCheckpoint(epID)
		st.IFU = &e
	}
	st.DecodeQ = make([]checkpoint.UopState, 0, co.decodeQ.Len())
	for i := 0; i < co.decodeQ.Len(); i++ {
		st.DecodeQ = append(st.DecodeQ, co.decodeQ.At(i).CaptureCheckpoint(epID))
	}
	st.ROB = co.rob.CaptureCheckpoint(epID)
	st.PQ = co.pq.CaptureCheckpoint()
	st.Prefetcher = ck.CaptureCheckpoint()

	// epID only registers episodes reachable from uops and the IFU entry;
	// if the walk above ever misses a reachable episode, its index would
	// silently dangle, so double-check the registration count.
	if len(epIdx) != len(eps) {
		return fmt.Errorf("core: episode dedup inconsistency (%d indexed, %d collected)", len(epIdx), len(eps))
	}
	return nil
}

// captureCoreState captures the core's scalar state, the EMISSARY and FEC
// sets (key-sorted — checkpoint bytes must not depend on Go map iteration
// order), the CollectSets diagnostics, the rng streams and the counters.
func (co *Core) captureCoreState() checkpoint.CoreState {
	st := checkpoint.CoreState{
		Now:             co.now,
		Seq:             co.seq,
		Retired:         co.retired,
		HasResteer:      co.hasResteer,
		Resteer:         co.pendingResteer,
		IAGResumeAt:     co.iagResumeAt,
		ShadowTrigger:   co.shadowTrigger,
		ShadowWasReturn: co.shadowWasReturn,
		ShadowLeft:      co.shadowLeft,
		LastTakenBlock:  co.lastTakenBlock,
		Promoted:        sortedKeys(co.promoted),
		FECEver:         sortedKeys(co.fecEver),
		FECReqAge:       co.fecReqAge,
		FECHolds:        co.fecHolds,
		SampleEvery:     co.sampleEvery,
		DataRng:         co.dataRng.State(),
		PromoRng:        co.promoRng.State(),
		Stats:           co.stats,
	}
	if co.pfSet != nil {
		lines := sortedKeys(co.pfSet)
		st.PFSet = make([]checkpoint.PFSetEntry, len(lines))
		for i, line := range lines {
			st.PFSet[i] = checkpoint.PFSetEntry{Line: line, Cycle: co.pfSet[line]}
		}
	}
	return st
}

func sortedKeys[V any](m map[isa.Addr]V) []isa.Addr {
	out := make([]isa.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refill empties set and adds keys. An empty set is replaced by one
// sized for keys, so restoring a new core makes its table once instead
// of growing it.
func refill(set map[isa.Addr]struct{}, keys []isa.Addr) map[isa.Addr]struct{} {
	if len(set) == 0 {
		set = make(map[isa.Addr]struct{}, len(keys))
	} else {
		clear(set)
	}
	for _, a := range keys {
		set[a] = struct{}{}
	}
	return set
}

// NewSocketFromSnapshot rebuilds a socket from tenants and sc — which must
// describe the snapshotted socket's machine (same shape and geometry
// everywhere; measure-phase knobs such as CollectSets, NoFastForward and
// sampling may differ) — then overwrites all state from st. A tenant
// driven by a trace source needs a fresh source over the input the
// snapshot's tenant read; the restore positions it. The restored socket
// replays bit-identically to the original, whether its tables are fresh
// or recycled (internal/recycle). A failed build or restore hands every
// table back but the tenants' prefetchers, as NewSocket does. st is only
// read: one snapshot can be forked concurrently from many goroutines.
func NewSocketFromSnapshot(tenants []SocketTenant, sc SocketConfig, st *checkpoint.State) (*Socket, error) {
	if st.Version != checkpoint.FormatVersion {
		return nil, fmt.Errorf("socket: snapshot format version %d, simulator speaks %d", st.Version, checkpoint.FormatVersion)
	}
	if len(st.Tenants) != len(tenants) {
		return nil, fmt.Errorf("socket: snapshot has %d tenants, got %d", len(st.Tenants), len(tenants))
	}
	if st.SharedPrefetcher != sc.SharedPrefetcher {
		return nil, fmt.Errorf("socket: snapshot shared-prefetcher=%v, config says %v", st.SharedPrefetcher, sc.SharedPrefetcher)
	}
	s, err := NewSocket(tenants, sc)
	if err != nil {
		return nil, err
	}
	if err := s.restore(st); err != nil {
		s.release(false)
		return nil, err
	}
	return s, nil
}

// restore overwrites the socket's state from st, whose tenant count and
// sharing mode match the socket's. A restore into a socket that has
// already run equals one into a freshly built socket
// (TestDirtyRestoreEqualsFresh).
func (s *Socket) restore(st *checkpoint.State) error {
	if err := s.unc.RestoreCheckpoint(st.Uncore); err != nil {
		return err
	}
	for i, co := range s.cores {
		if err := co.restore(&st.Tenants[i]); err != nil {
			return fmt.Errorf("socket: tenant %d: %w", i, err)
		}
	}
	s.now = st.Now
	s.first = int(st.Now % int64(len(s.cores)))
	return nil
}

// NewFromSnapshot builds a core over prog with configuration c and
// overwrites its state from a one-tenant snapshot — the in-memory fork
// operation, and the one-tenant form of NewSocketFromSnapshot.
func NewFromSnapshot(prog *cfg.Program, c Config, st *checkpoint.State) (*Core, error) {
	s, err := NewSocketFromSnapshot([]SocketTenant{{Prog: prog, Config: c}}, SocketConfig{}, st)
	if err != nil {
		return nil, err
	}
	return s.cores[0], nil
}

// restore overwrites the core's state from st. Slices held by st are
// copied, never aliased. Every record in flight is replaced by one drawn
// from the core's pools and overwritten whole, so a core that has already
// run restores exactly as a fresh one does.
func (co *Core) restore(st *checkpoint.TenantState) error {
	ck, ok := co.pf.(prefetch.Checkpointer)
	if !ok {
		return fmt.Errorf("core: prefetcher %q does not implement prefetch.Checkpointer", co.pf.Name())
	}
	if err := co.hier.RestoreCheckpoint(st.Mem); err != nil {
		return err
	}
	if err := co.bp.RestoreCheckpoint(st.BPU); err != nil {
		return err
	}
	if err := co.iag.RestoreCheckpoint(st.IAG); err != nil {
		return err
	}

	eps := make([]*frontend.LineEpisode, len(st.Episodes))
	for i := range st.Episodes {
		eps[i] = co.newEpisode()
		eps[i].EpisodeState = st.Episodes[i]
	}
	if err := co.ftq.RestoreCheckpoint(st.FTQ, eps); err != nil {
		return err
	}
	co.ifuEntry = nil
	if st.IFU != nil {
		e, err := frontend.NewEntryFromCheckpoint(*st.IFU, eps)
		if err != nil {
			return err
		}
		co.ifuEntry = e
	}
	co.decodeQ.Reset()
	for i := range st.DecodeQ {
		u := co.newUop()
		if err := u.RestoreCheckpoint(st.DecodeQ[i], eps); err != nil {
			return err
		}
		co.decodeQ.Push(u)
	}
	if err := co.rob.RestoreCheckpoint(st.ROB, eps, co.newUop); err != nil {
		return err
	}
	if err := co.pq.RestoreCheckpoint(st.PQ); err != nil {
		return err
	}
	if err := ck.RestoreCheckpoint(st.Prefetcher); err != nil {
		return err
	}
	// Invariant bookkeeping restarts as in a fresh core.
	for _, stage := range co.pipe.Stages() {
		switch stage := stage.(type) {
		case *decodeStage:
			stage.lastSeq = 0
		case *prefetchDrainStage:
			stage.lastTick = 0
		}
	}
	return co.restoreCoreState(st.Core)
}

// restoreCoreState is captureCoreState's inverse.
func (co *Core) restoreCoreState(st checkpoint.CoreState) error {
	co.now = st.Now
	co.seq = st.Seq
	co.retired = st.Retired
	co.hasResteer = st.HasResteer
	co.pendingResteer = st.Resteer
	co.iagResumeAt = st.IAGResumeAt
	co.shadowTrigger = st.ShadowTrigger
	co.shadowWasReturn = st.ShadowWasReturn
	co.shadowLeft = st.ShadowLeft
	co.lastTakenBlock = st.LastTakenBlock
	co.promoted = refill(co.promoted, st.Promoted)
	co.fecEver = refill(co.fecEver, st.FECEver)
	// The request set restores only into a core that has CollectSets on;
	// a fork that turns CollectSets on over a snapshot taken without it
	// simply starts with an empty set (identical to a scratch run, whose
	// ResetStats clears it at the warmup boundary).
	if co.pfSet != nil {
		clear(co.pfSet)
		for _, e := range st.PFSet {
			co.pfSet[e.Line] = e.Cycle
		}
	}
	co.fecReqAge = st.FECReqAge
	co.fecHolds = st.FECHolds
	co.sampleEvery = st.SampleEvery
	co.dataRng.SetState(st.DataRng)
	co.promoRng.SetState(st.PromoRng)
	co.stats = st.Stats
	return nil
}
