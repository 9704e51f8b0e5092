package fabric

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pdip/internal/harness"
	"pdip/internal/metrics"
)

// Worker executes jobs pulled from a coordinator over one connection. It
// offers Slots ready tokens up front, runs each assignment on its own
// goroutine through the shared job-execution core (Runner.ExecuteJob —
// exactly the path a serial run takes, so results are bit-identical),
// streams interval snapshots back mid-run, and heartbeats.
type Worker struct {
	// Name identifies the worker in coordinator accounting; the
	// coordinator uniquifies collisions.
	Name string
	// Runner supplies the warm-state layer: its checkpoint store over the
	// shared on-disk directory, whose per-key singleflight every runner
	// holding the same Dir shares. It should be constructed with
	// parallelism ≥ Slots; the fabric bounds concurrency by tokens, not
	// by the runner's semaphore (ExecuteJob bypasses it).
	Runner *harness.Runner
	// Slots is the number of jobs run concurrently (min 1).
	Slots int
	// HeartbeatEvery is the liveness cadence (default 2s). It must be
	// comfortably under the coordinator's LeaseTimeout.
	HeartbeatEvery time.Duration
	// BeforeJob, when set, runs before each assignment executes — a test
	// hook for fault injection (e.g. severing the connection mid-job).
	// A returned error fails the job without executing it.
	BeforeJob func(spec harness.RunSpec) error
}

// Run serves the worker side of conn until the coordinator drains it or
// the connection drops. In-flight jobs are waited for on a clean drain.
func (w *Worker) Run(conn net.Conn) error {
	wr := newWire(conn)
	defer wr.close()
	slots := w.Slots
	if slots < 1 {
		slots = 1
	}
	if err := wr.send(&message{Type: msgHello, Worker: w.Name, Slots: slots}); err != nil {
		return fmt.Errorf("fabric: worker hello: %w", err)
	}
	for i := 0; i < slots; i++ {
		if err := wr.send(&message{Type: msgReady}); err != nil {
			return fmt.Errorf("fabric: worker ready: %w", err)
		}
	}

	hb := w.HeartbeatEvery
	if hb <= 0 {
		hb = 2 * time.Second
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	//lint:ignore determinism the heartbeat loop is host-side liveness signalling; the fabric sits above the simulated clock
	go func() {
		defer wg.Done()
		//lint:ignore determinism host-side heartbeat cadence; see above
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				stats := w.Runner.Stats()
				wr.send(&message{Type: msgHeartbeat, Stats: &stats})
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var jobs sync.WaitGroup
	defer jobs.Wait()
	for {
		m, err := wr.recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil
			}
			return fmt.Errorf("fabric: worker recv: %w", err)
		}
		switch m.Type {
		case msgAssign:
			jobs.Add(1)
			//lint:ignore determinism one host-side goroutine per assigned job slot; the simulation inside is single-threaded and deterministic
			go func(m *message) {
				defer jobs.Done()
				w.execute(wr, m)
			}(m)
		case msgDrain:
			return nil
		}
	}
}

// execute runs one assignment and reports done or fail, then re-offers
// the freed slot.
func (w *Worker) execute(wr *wire, m *message) {
	res, err := w.runJob(wr, m)
	var out *message
	if err != nil {
		out = &message{Type: msgFail, JobID: m.JobID, Attempt: m.Attempt, Error: err.Error()}
	} else {
		// Streamed samples already live at the coordinator in stream
		// order; strip them from the completion message rather than
		// sending every interval twice.
		if m.Spec.SampleEvery > 0 && len(res.Samples) > 0 {
			cp := *res
			cp.Samples = nil
			res = &cp
		}
		out = &message{Type: msgDone, JobID: m.JobID, Attempt: m.Attempt, Result: res}
	}
	stats := w.Runner.Stats()
	out.Stats = &stats
	if wr.send(out) != nil {
		return // connection gone; the coordinator re-queues the job
	}
	wr.send(&message{Type: msgReady})
}

// runJob executes the assignment through the shared core, streaming each
// interval snapshot as it is recorded (the retire stage invokes the hook
// in deterministic order, so the stream matches a serial run's Samples
// slice exactly).
func (w *Worker) runJob(wr *wire, m *message) (*harness.RunResult, error) {
	if m.Spec == nil {
		return nil, errors.New("fabric: assign without spec")
	}
	if w.BeforeJob != nil {
		if err := w.BeforeJob(*m.Spec); err != nil {
			return nil, err
		}
	}
	var onSample func(metrics.Sample)
	if m.Spec.SampleEvery > 0 {
		// Stream each interval snapshot as the retire stage records it.
		// Send errors are ignored: a dead connection also kills the
		// completion send, and the re-queued attempt regenerates the
		// identical stream.
		onSample = func(s metrics.Sample) {
			sm := s
			wr.send(&message{Type: msgSample, JobID: m.JobID, Attempt: m.Attempt, Sample: &sm})
		}
	}
	return w.Runner.ExecuteJob(*m.Spec, onSample)
}
