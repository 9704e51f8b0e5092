package fabric

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pdip/internal/harness"
	"pdip/internal/recycle"
)

// testGrid is the small distributed-vs-serial reference grid: two
// benchmarks × two policies with sample streaming on, so the comparison
// covers final snapshots and the incremental sample path.
func testGrid() Grid {
	return Grid{
		Benchmarks:  []string{"cassandra", "kafka"},
		Policies:    []string{"baseline", "pdip44"},
		Warmup:      20_000,
		Measure:     60_000,
		SampleEvery: 30_000,
	}
}

// serialDoc runs specs serially on a fresh runner and returns the
// canonical merged document.
func serialDoc(t *testing.T, specs []harness.RunSpec) []byte {
	t.Helper()
	cells, err := MergedFrom(harness.NewRunnerWithCheckpoints(1, t.TempDir()), specs)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteMerged(&buf, cells); err != nil {
		t.Fatalf("write serial doc: %v", err)
	}
	return buf.Bytes()
}

func mergedDoc(t *testing.T, results []*harness.RunResult) []byte {
	t.Helper()
	cells, err := Merge(results)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteMerged(&buf, cells); err != nil {
		t.Fatalf("write merged doc: %v", err)
	}
	return buf.Bytes()
}

// TestFabricBitIdenticalToSerial distributes the reference grid over two
// in-process workers with a shared checkpoint directory and requires the
// merged document to be byte-identical to a serial Runner.RunAll over the
// same specs. The two workers fork concurrently on the tables earlier
// sockets released (internal/recycle), so under -race this is also the
// recycler's concurrency test.
func TestFabricBitIdenticalToSerial(t *testing.T) {
	specs, err := testGrid().Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := serialDoc(t, specs)

	fleet := StartFleet(2, 1, t.TempDir(), Config{})
	defer fleet.Close()
	before := recycle.Stats().Recycled
	results, err := fleet.RunGrid(specs)
	if err != nil {
		t.Fatalf("fabric grid: %v", err)
	}
	// Every fork and warmup after the first finds the uncore's ~1 MB idle.
	if got := recycle.Stats().Recycled - before; got < uint64(len(specs))<<20 {
		t.Errorf("the fleet built on %d bytes of recycled table, want at least 1 MiB per cell", got)
	}
	got := mergedDoc(t, results)
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed merged document differs from serial reference\nserial:\n%s\nfabric:\n%s", want, got)
	}

	st := fleet.Stats()
	if st.Cells != uint64(len(specs)) || st.Completed != uint64(len(specs)) {
		t.Fatalf("stats: want %d cells completed, got %+v", len(specs), st)
	}
	if st.Runner.RunsExecuted != uint64(len(specs)) {
		t.Fatalf("stats: want %d runs executed across workers, got %d", len(specs), st.Runner.RunsExecuted)
	}
	if st.Runner.Checkpoint.WarmupsExecuted == 0 {
		t.Fatalf("stats: workers reported no warmups: %+v", st.Runner)
	}
}

// TestFabricWorkerLoss kills one worker's connection the moment it starts
// its first job; the coordinator must re-queue the orphaned work onto the
// surviving worker and still produce the byte-identical document.
func TestFabricWorkerLoss(t *testing.T) {
	specs, err := testGrid().Specs()
	if err != nil {
		t.Fatal(err)
	}
	want := serialDoc(t, specs)

	ckdir := t.TempDir()
	coord := NewCoordinator(Config{})
	defer coord.Close()

	var wg sync.WaitGroup
	start := func(w *Worker, cend, wend net.Conn) {
		wg.Add(2)
		go func() { defer wg.Done(); coord.HandleConn(cend) }()
		go func() { defer wg.Done(); w.Run(wend) }()
	}

	// The doomed worker severs its own connection when handed its first
	// job, orphaning that job mid-assignment.
	dcend, dwend := net.Pipe()
	var die sync.Once
	doomed := &Worker{
		Name:   "doomed",
		Runner: harness.NewRunnerWithCheckpoints(1, ckdir),
		Slots:  1,
		BeforeJob: func(harness.RunSpec) error {
			die.Do(func() { dwend.Close() })
			return nil
		},
	}
	start(doomed, dcend, dwend)
	scend, swend := net.Pipe()
	start(&Worker{Name: "survivor", Runner: harness.NewRunnerWithCheckpoints(1, ckdir), Slots: 1}, scend, swend)

	results, err := coord.RunGrid(specs)
	if err != nil {
		t.Fatalf("fabric grid with worker loss: %v", err)
	}
	got := mergedDoc(t, results)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged document after worker loss differs from serial reference")
	}
	st := coord.Stats()
	if st.Requeues == 0 {
		t.Fatalf("expected at least one re-queue after worker loss, got %+v", st)
	}
	if st.Completed != uint64(len(specs)) {
		t.Fatalf("want %d completions, got %+v", len(specs), st)
	}
	coord.Close()
	wg.Wait()
}

// TestFabricLeaseExpiry re-queues a job whose worker hangs without
// disconnecting: heartbeats stop, the lease runs out, and the reaper
// moves the job (and the worker's other state) to the surviving worker.
func TestFabricLeaseExpiry(t *testing.T) {
	spec := harness.RunSpec{Benchmark: "kafka", Policy: "baseline", Warmup: 20_000, Measure: 60_000}
	ckdir := t.TempDir()
	coord := NewCoordinator(Config{LeaseTimeout: 150 * time.Millisecond, SweepEvery: 25 * time.Millisecond})
	defer coord.Close()

	// The hung worker accepts the job, then blocks forever with its
	// heartbeat loop suppressed (enormous cadence), so only lease expiry
	// can recover the job.
	hang := make(chan struct{})
	held := make(chan struct{})
	hung := &Worker{
		Name:           "hung",
		Runner:         harness.NewRunnerWithCheckpoints(1, ckdir),
		Slots:          1,
		HeartbeatEvery: time.Hour,
		// With one slot blocked here the hung worker never starts a second
		// job, so held is closed exactly once.
		BeforeJob: func(harness.RunSpec) error { close(held); <-hang; return nil },
	}
	cend, wend := net.Pipe()
	go coord.HandleConn(cend)
	go hung.Run(wend)
	defer close(hang)
	defer wend.Close()

	pending := coord.Submit(spec)

	// Wait until the hung worker holds the job, then add a healthy
	// worker; the job must land there after the lease expires.
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the hung worker never received the job")
	}
	healthy := &Worker{Name: "healthy", Runner: harness.NewRunnerWithCheckpoints(1, ckdir), Slots: 1, HeartbeatEvery: 20 * time.Millisecond}
	cend2, wend2 := net.Pipe()
	go coord.HandleConn(cend2)
	go healthy.Run(wend2)
	defer wend2.Close()

	res, err := pending.Wait()
	if err != nil {
		t.Fatalf("job after lease expiry: %v", err)
	}
	if res.Res.Core.Instructions == 0 {
		t.Fatalf("empty result after re-queue")
	}
	if st := coord.Stats(); st.Requeues == 0 {
		t.Fatalf("expected lease-expiry re-queue, got %+v", st)
	}
}

// TestFabricRetryCap permanently fails a job whose spec errors on every
// worker, after MaxAttempts tries, without stalling the rest of the grid.
func TestFabricRetryCap(t *testing.T) {
	fleet := StartFleet(2, 1, t.TempDir(), Config{MaxAttempts: 2, RetryBackoff: time.Millisecond})
	defer fleet.Close()

	bad := harness.RunSpec{Benchmark: "no-such-benchmark", Policy: "baseline", Warmup: 1000, Measure: 1000}
	good := harness.RunSpec{Benchmark: "kafka", Policy: "baseline", Warmup: 20_000, Measure: 60_000}
	badP, goodP := fleet.Coordinator.Submit(bad), fleet.Coordinator.Submit(good)

	if _, err := goodP.Wait(); err != nil {
		t.Fatalf("good cell: %v", err)
	}
	_, err := badP.Wait()
	if err == nil {
		t.Fatalf("bad cell: want permanent failure")
	}
	if !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("bad cell error %q: want attempts exhausted", err)
	}
	st := fleet.Stats()
	if st.Failed != 1 || st.Retries != 1 {
		t.Fatalf("want 1 permanent failure after 1 retry, got %+v", st)
	}
}

// TestFabricWarmLease checks the cluster-wide warm-once protocol: two
// specs sharing a warm tuple but differing in measure budget, distributed
// over two workers with a shared store, must warm exactly once — the
// leader simulates the warmup, the other cell forks (from disk on the
// other worker).
func TestFabricWarmLease(t *testing.T) {
	a := harness.RunSpec{Benchmark: "cassandra", Policy: "pdip44", Warmup: 20_000, Measure: 40_000}
	b := a
	b.Measure = 60_000
	if a.WarmTuple() != b.WarmTuple() || a.WarmTuple() == "" {
		t.Fatalf("specs should share a warm tuple: %q vs %q", a.WarmTuple(), b.WarmTuple())
	}

	fleet := StartFleet(2, 1, t.TempDir(), Config{})
	defer fleet.Close()
	if _, err := fleet.RunGrid([]harness.RunSpec{a, b}); err != nil {
		t.Fatal(err)
	}
	st := fleet.Stats()
	if st.Runner.Checkpoint.WarmupsExecuted != 1 {
		t.Fatalf("want exactly 1 cluster-wide warmup, got %+v", st.Runner.Checkpoint)
	}
	if st.Runner.Checkpoint.Forks != 2 {
		t.Fatalf("want both cells served by forks, got %+v", st.Runner.Checkpoint)
	}
}

// TestFabricTCP runs one cell over a real localhost TCP connection — the
// deployment transport — and compares against the in-process result.
func TestFabricTCP(t *testing.T) {
	spec := harness.RunSpec{Benchmark: "kafka", Policy: "pdip44", Warmup: 20_000, Measure: 60_000}
	want := serialDoc(t, []harness.RunSpec{spec})

	coord := NewCoordinator(Config{})
	defer coord.Close()
	l, err := coord.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Skipf("no localhost TCP available: %v", err)
	}
	defer l.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Name: "tcp-w1", Runner: harness.NewRunnerWithCheckpoints(1, t.TempDir()), Slots: 1}
	done := make(chan error, 1)
	go func() { done <- w.Run(conn) }()

	results, err := coord.RunGrid([]harness.RunSpec{spec})
	if err != nil {
		t.Fatalf("tcp grid: %v", err)
	}
	if got := mergedDoc(t, results); !bytes.Equal(got, want) {
		t.Fatalf("tcp merged document differs from serial reference")
	}
	coord.Close()
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
}

// TestFabricSubmitDedup hands the coordinator the same spec twice and
// expects one job, one execution, two identical results.
func TestFabricSubmitDedup(t *testing.T) {
	fleet := StartFleet(1, 1, t.TempDir(), Config{})
	defer fleet.Close()
	spec := harness.RunSpec{Benchmark: "kafka", Policy: "baseline", Warmup: 20_000, Measure: 60_000}
	p1, p2 := fleet.Coordinator.Submit(spec), fleet.Coordinator.Submit(spec)
	r1, err1 := p1.Wait()
	r2, err2 := p2.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("dedup waits: %v / %v", err1, err2)
	}
	if r1 != r2 {
		t.Fatalf("duplicate submissions should share one job result")
	}
	if st := fleet.Stats(); st.Cells != 1 || st.Runner.RunsExecuted != 1 {
		t.Fatalf("want one deduped cell executed once, got %+v", st)
	}
}
