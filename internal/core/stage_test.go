package core

import (
	"testing"

	"pdip/internal/checkpoint"
	"pdip/internal/frontend"
	"pdip/internal/isa"
	"pdip/internal/prefetch"
)

// stageCore builds a core for direct stage poking.
func stageCore(t *testing.T) *Core {
	t.Helper()
	return MustNew(testProgram(11), testConfig(11))
}

// stageOf fetches the named stage from the core's pipeline.
func stageOf(t *testing.T, co *Core, name string) interface{ Tick(int64) } {
	t.Helper()
	for _, s := range co.Pipeline().Stages() {
		if s.Name() == name {
			return s
		}
	}
	t.Fatalf("no stage named %q", name)
	return nil
}

func TestPipelineStageOrder(t *testing.T) {
	co := stageCore(t)
	want := []string{"retire", "resteer", "decode", "fetch", "predict", "prefetch-drain"}
	stages := co.Pipeline().Stages()
	if len(stages) != len(want) {
		t.Fatalf("pipeline has %d stages, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.Name() != want[i] {
			t.Fatalf("stage %d is %q, want %q (order is the intra-cycle contract)",
				i, s.Name(), want[i])
		}
	}
}

func TestPredictStageFillsFTQ(t *testing.T) {
	co := stageCore(t)
	ps := stageOf(t, co, "predict")
	if co.ftq.Len() != 0 {
		t.Fatal("FTQ not empty at construction")
	}
	ps.Tick(1)
	if got := co.ftq.Len(); got != co.cfg.IAGWidth {
		t.Fatalf("one predict tick enqueued %d entries, want IAGWidth=%d", got, co.cfg.IAGWidth)
	}
	// The FDIP prime path must have filled the L1I for the entry's lines.
	if co.hier.L1I.Stats.Fills == 0 {
		t.Fatal("predict tick primed no L1I lines (FDIP prime path broken)")
	}
}

func TestPredictStageRespectsResteerBubble(t *testing.T) {
	co := stageCore(t)
	ps := stageOf(t, co, "predict")
	co.iagResumeAt = 100
	ps.Tick(50)
	if co.ftq.Len() != 0 {
		t.Fatal("predict stage ran inside the resteer bubble")
	}
	ps.Tick(100)
	if co.ftq.Len() == 0 {
		t.Fatal("predict stage still stalled once the bubble elapsed")
	}
}

func TestFetchStageDeliversIntoLatch(t *testing.T) {
	co := stageCore(t)
	ps := stageOf(t, co, "predict")
	fs := stageOf(t, co, "fetch")
	ps.Tick(1)
	fs.Tick(1) // starts the demand fetch; entry not ready on a cold miss
	for now := int64(2); now < 400 && co.decodeQ.Len() == 0; now++ {
		fs.Tick(now)
	}
	if co.decodeQ.Len() == 0 {
		t.Fatal("fetch stage never delivered uops into the decode latch")
	}
	u, _ := co.decodeQ.Peek()
	if u.Ep == nil {
		t.Fatal("delivered uop has no fetch episode")
	}
}

func TestDecodeStageStarvationAttribution(t *testing.T) {
	co := stageCore(t)
	ds := stageOf(t, co, "decode")
	// Empty latch, empty FTQ, no IFU entry: a starved cycle attributed to
	// the no-entry bucket, with the full width counted front-end bound.
	ds.Tick(1)
	if got := co.ct.decode.decodeStarved.Load(); got != 1 {
		t.Fatalf("decodeStarved = %d, want 1", got)
	}
	if got := co.ct.decode.starveNoEntry.Load(); got != 1 {
		t.Fatalf("starveNoEntry = %d, want 1", got)
	}
	if got := co.ct.decode.tdFrontend.Load(); got != uint64(co.cfg.DecodeWidth) {
		t.Fatalf("tdFrontend = %d, want DecodeWidth=%d", got, co.cfg.DecodeWidth)
	}
}

func TestDecodeStageMovesReadyUops(t *testing.T) {
	co := stageCore(t)
	ds := stageOf(t, co, "decode")
	for i := 0; i < 3; i++ {
		co.decodeQ.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: uint64(i + 1), AvailableAt: 5}})
	}
	ds.Tick(4) // not yet available
	if co.rob.Len() != 0 {
		t.Fatal("decode moved uops before AvailableAt")
	}
	if got := co.ct.decode.decodeStarved.Load(); got != 1 {
		t.Fatalf("decodeStarved = %d, want 1 (work in latch, none ready)", got)
	}
	ds.Tick(5)
	if co.rob.Len() != 3 {
		t.Fatalf("ROB holds %d uops after decode, want 3", co.rob.Len())
	}
	if co.decodeQ.Len() != 0 {
		t.Fatalf("latch still holds %d uops", co.decodeQ.Len())
	}
}

func TestResteerStageSquashesWrongPath(t *testing.T) {
	co := stageCore(t)
	rs := stageOf(t, co, "resteer")
	// Two correct-path uops below a wrong-path suffix in the latch and
	// one wrong-path uop in the ROB.
	co.decodeQ.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: 1}})
	co.decodeQ.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: 2, WrongPath: true}})
	co.decodeQ.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: 3, WrongPath: true}})
	co.rob.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: 4}})
	co.rob.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: 5, WrongPath: true}})
	co.pendingResteer = checkpoint.ResteerState{
		At:      10,
		Trigger: isa.Addr(0x40),
		Cause:   frontend.ResteerMispredict,
	}
	co.hasResteer = true
	rs.Tick(9) // not due yet
	if co.decodeQ.Len() != 3 {
		t.Fatal("resteer applied before its resolution cycle")
	}
	rs.Tick(10)
	if co.hasResteer {
		t.Fatal("resteer not consumed")
	}
	if co.decodeQ.Len() != 1 {
		t.Fatalf("latch holds %d uops after squash, want 1", co.decodeQ.Len())
	}
	if u, _ := co.decodeQ.Peek(); u.WrongPath || u.Seq != 1 {
		t.Fatalf("wrong survivor %+v", u)
	}
	if co.rob.Len() != 1 {
		t.Fatalf("ROB holds %d after squash, want 1", co.rob.Len())
	}
	if got := co.ct.resteer.mispredict.Load(); got != 1 {
		t.Fatalf("mispredict resteer counter = %d, want 1", got)
	}
	if co.iagResumeAt != 10+int64(co.cfg.ResteerPenalty) {
		t.Fatalf("iagResumeAt = %d", co.iagResumeAt)
	}
	if co.shadowTrigger != isa.Addr(0x40) || co.shadowLeft != co.cfg.ResteerShadowBlocks {
		t.Fatal("resteer shadow window not opened")
	}
}

func TestRetireStageRetiresAndCounts(t *testing.T) {
	co := stageCore(t)
	rs := stageOf(t, co, "retire")
	// Refs mirrors the pool contract: one live reference per uop built
	// below, so retire's release path sees a consistent refcount.
	ep := &frontend.LineEpisode{EpisodeState: checkpoint.EpisodeState{Line: isa.Addr(0x1000), Missed: true, Starve: 5, Refs: 2}}
	co.rob.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: 1, DoneAt: 3}, Ep: ep})
	co.rob.Push(&frontend.Uop{UopState: checkpoint.UopState{Seq: 2, DoneAt: 3}, Ep: ep})
	rs.Tick(2) // head not done
	if co.Retired() != 0 {
		t.Fatal("retired before DoneAt")
	}
	rs.Tick(3)
	if co.Retired() != 2 {
		t.Fatalf("retired %d, want 2", co.Retired())
	}
	// The shared episode is processed exactly once and met the FEC
	// conditions (missed, starved).
	if got := co.ct.retire.linesRetired.Load(); got != 1 {
		t.Fatalf("linesRetired = %d, want 1 (episode processed once)", got)
	}
	if got := co.ct.retire.fecLines.Load(); got != 1 {
		t.Fatalf("fecLines = %d, want 1", got)
	}
	if got := co.ct.retire.fecStallCycles.Load(); got != 5 {
		t.Fatalf("fecStallCycles = %d, want 5", got)
	}
	if !co.isFECEver(ep.Line) {
		t.Fatal("FEC line not recorded in fecEver")
	}
}

func TestPrefetchDrainStageIssuesIntoPort(t *testing.T) {
	co := stageCore(t)
	// Enqueue a PQ request directly and tick only the drain stage: the
	// prefetch must reach the L1I through the instruction port.
	ds := stageOf(t, co, "prefetch-drain")
	co.pq.Enqueue(prefetch.Request{Line: isa.Addr(0x8000)})
	ds.Tick(1)
	if co.pq.Stats.Issued != 1 {
		t.Fatalf("PQ issued %d, want 1", co.pq.Stats.Issued)
	}
	if co.hier.L1I.Stats.PrefetchFills != 1 {
		t.Fatalf("L1I prefetch fills = %d, want 1", co.hier.L1I.Stats.PrefetchFills)
	}
}

func TestStepTicksWholePipeline(t *testing.T) {
	co := stageCore(t)
	if err := co.Run(5000); err != nil {
		t.Fatal(err)
	}
	r := co.Result()
	if r.Core.Instructions < 5000 || r.Core.Cycles == 0 {
		t.Fatalf("pipeline did not run: %+v", r.Core)
	}
	// Every stage left its fingerprint: fetch filled the L1I, decode did
	// top-down accounting, retire counted line episodes.
	if r.L1I.Accesses == 0 || r.Core.LinesRetired == 0 {
		t.Fatalf("stage fingerprints missing: %+v", r.Core)
	}
	slots := r.Core.TopDown.Retiring + r.Core.TopDown.BadSpeculation +
		r.Core.TopDown.FrontendBound + r.Core.TopDown.BackendBound
	if want := r.Core.Cycles * uint64(co.cfg.DecodeWidth); slots != want {
		t.Fatalf("top-down slots %d != cycles×width %d", slots, want)
	}
}
