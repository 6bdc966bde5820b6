package dispatch

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netem"
)

// testLog is a concurrency-safe log sink that can outlive the test
// body without tripping testing.T's post-test logging panic.
type testLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *testLog) logf(format string, args ...interface{}) {
	l.mu.Lock()
	fmt.Fprintf(&l.buf, format+"\n", args...)
	l.mu.Unlock()
}

func (l *testLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// stubRunner computes a deterministic state from everything the worker
// received, optionally sleeping first (to play the straggler).
func stubRunner(delay time.Duration) StreamRunner {
	return func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return stubState(spec, files)
	}
}

// stubState hashes the assignment; a file that does not arrive whole is
// an error, as it must be for any real runner.
func stubState(spec []byte, files []io.Reader) ([]byte, error) {
	h := sha256.New()
	h.Write(spec)
	for _, f := range files {
		if _, err := io.Copy(h, f); err != nil {
			return nil, err
		}
	}
	return append([]byte("state:"), h.Sum(nil)...), nil
}

// startWorker serves w on a loopback listener and returns its address.
func startWorker(t *testing.T, w *Worker) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(lis)
	t.Cleanup(w.Drain)
	return lis.Addr().String()
}

// makeTasks writes n small trace files and builds one task per file.
// expected maps task ID to the state a faithful worker must return.
func makeTasks(t *testing.T, n int) (tasks []Task, expected map[int][]byte) {
	return makeSizedTasks(t, n, 1000)
}

// makeSizedTasks is makeTasks with files of at least size bytes, for
// transfers that span several chunk frames.
func makeSizedTasks(t *testing.T, n, size int) (tasks []Task, expected map[int][]byte) {
	t.Helper()
	dir := t.TempDir()
	spec := json.RawMessage(`{"kind":"stub"}`)
	expected = make(map[int][]byte)
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("piece-%d.trace", i))
		content := bytes.Repeat([]byte(fmt.Sprintf("op %d;", i)), size/5+1)
		if err := os.WriteFile(path, content, 0o600); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, Task{ID: i, Spec: spec, Files: []string{path}})
		h := sha256.New()
		h.Write(spec)
		h.Write(content)
		expected[i] = append([]byte("state:"), h.Sum(nil)...)
	}
	return tasks, expected
}

// fastCfg is a Config tuned for subsecond test runs.
func fastCfg(lg *testLog, addrs ...string) Config {
	return Config{
		Addrs:             addrs,
		DialTimeout:       2 * time.Second,
		AssignTimeout:     5 * time.Second,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		Backoff:           NewBackoff(time.Millisecond, 20*time.Millisecond, 0, 1),
		Logf:              lg.logf,
	}
}

func checkResults(t *testing.T, results []Result, expected map[int][]byte) {
	t.Helper()
	if len(results) != len(expected) {
		t.Fatalf("got %d results, want %d", len(results), len(expected))
	}
	for _, res := range results {
		want, ok := expected[res.TaskID]
		if !ok {
			t.Fatalf("result for unknown task %d", res.TaskID)
		}
		if !bytes.Equal(res.State, want) {
			t.Fatalf("task %d state mismatch", res.TaskID)
		}
	}
}

func TestDispatchHappyPath(t *testing.T) {
	lg := &testLog{}
	a1 := startWorker(t, &Worker{Stream: stubRunner(0), Logf: lg.logf})
	a2 := startWorker(t, &Worker{Stream: stubRunner(0), Logf: lg.logf})
	tasks, expected := makeTasks(t, 5)
	results, stats, err := Run(context.Background(), fastCfg(lg, a1, a2), tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if stats.Completed != 5 || stats.Dispatched < 5 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestDispatchCrashMidStreamRetries(t *testing.T) {
	lg := &testLog{}
	// The first assignment streams half its result then "dies" (the
	// connection is torn down; the process survives so the retry has a
	// worker to land on — real process death is exercised by dist-smoke).
	w := &Worker{
		Stream:   stubRunner(0),
		Logf:     lg.logf,
		Exit:     func(int) {},
		FaultFor: func(seq int) Fault { return map[int]Fault{1: FaultCrash}[seq] },
	}
	addr := startWorker(t, w)
	tasks, expected := makeTasks(t, 2)
	results, stats, err := Run(context.Background(), fastCfg(lg, addr), tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if stats.Retries == 0 || stats.Failures == 0 {
		t.Fatalf("crash did not register as a retried failure: %+v\n%s", stats, lg)
	}
	if !strings.Contains(lg.String(), "re-dispatching") {
		t.Fatalf("no re-dispatch logged:\n%s", lg)
	}
}

func TestDispatchHungWorkerWatchdog(t *testing.T) {
	lg := &testLog{}
	// First assignment hangs: no heartbeats, connection open. The
	// heartbeat watchdog must declare it dead and re-dispatch.
	w := &Worker{
		Stream:   stubRunner(0),
		Logf:     lg.logf,
		FaultFor: func(seq int) Fault { return map[int]Fault{1: FaultHang}[seq] },
	}
	addr := startWorker(t, w)
	tasks, expected := makeTasks(t, 2)
	start := time.Now()
	results, stats, err := Run(context.Background(), fastCfg(lg, addr), tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if stats.Failures == 0 {
		t.Fatalf("hang never failed an attempt: %+v\n%s", stats, lg)
	}
	if !strings.Contains(lg.String(), "heartbeat: worker silent") {
		t.Fatalf("watchdog not the failure cause:\n%s", lg)
	}
	// The watchdog, not the 5s assignment deadline, must have fired.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("recovery took %v; watchdog apparently never fired", elapsed)
	}
}

func TestDispatchCorruptStateRejected(t *testing.T) {
	lg := &testLog{}
	w := &Worker{
		Stream:   stubRunner(0),
		Logf:     lg.logf,
		FaultFor: func(seq int) Fault { return map[int]Fault{1: FaultCorrupt}[seq] },
	}
	addr := startWorker(t, w)
	tasks, expected := makeTasks(t, 2)
	cfg := fastCfg(lg, addr)
	cfg.Validate = func(task Task, state []byte) error {
		if !bytes.Equal(state, expected[task.ID]) {
			return errors.New("state does not match expectation")
		}
		return nil
	}
	results, stats, err := Run(context.Background(), cfg, tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if stats.Failures == 0 {
		t.Fatalf("corrupt state was accepted: %+v\n%s", stats, lg)
	}
	if !strings.Contains(lg.String(), "state rejected") {
		t.Fatalf("rejection not logged:\n%s", lg)
	}
}

func TestDispatchAnalysisErrorReportedInBand(t *testing.T) {
	lg := &testLog{}
	var calls atomic.Int64
	runner := func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("synthetic analysis failure")
		}
		return stubState(spec, files)
	}
	addr := startWorker(t, &Worker{Stream: runner, Logf: lg.logf})
	tasks, expected := makeTasks(t, 2)
	results, stats, err := Run(context.Background(), fastCfg(lg, addr), tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if stats.Failures == 0 || !strings.Contains(lg.String(), "synthetic analysis failure") {
		t.Fatalf("in-band error not surfaced: %+v\n%s", stats, lg)
	}
}

func TestDispatchStragglerSpeculation(t *testing.T) {
	t.Run("identical", func(t *testing.T) {
		lg := &testLog{}
		// The fast worker is not instant, or it could finish every piece
		// before the slow one has registered and there would be no
		// straggler.
		fast := startWorker(t, &Worker{Stream: stubRunner(30 * time.Millisecond), Logf: lg.logf})
		slow := startWorker(t, &Worker{Stream: stubRunner(2 * time.Second), Logf: lg.logf})
		tasks, expected := makeTasks(t, 4)
		cfg := fastCfg(lg, fast, slow)
		cfg.StragglerMin = 50 * time.Millisecond
		cfg.StragglerFactor = 2
		// The slow worker heartbeats fine, so only speculation (never the
		// watchdog) can rescue its piece quickly.
		start := time.Now()
		results, stats, err := Run(context.Background(), cfg, tasks)
		if err != nil {
			t.Fatalf("Run: %v\n%s", err, lg)
		}
		checkResults(t, results, expected)
		if stats.Speculations == 0 || stats.Divergent != 0 {
			t.Fatalf("want a speculation and no divergence: %+v\n%s", stats, lg)
		}
		if elapsed := time.Since(start); elapsed >= 2*time.Second {
			t.Fatalf("run waited %v for the straggler; speculation did not win", elapsed)
		}
	})

	// Every attempt at a piece appends its own attempt number to the
	// state. The slow worker's attempt is held until the speculative one
	// has started, and Validate holds each of the two results until both
	// are in, so both reach the coordinator before the run can end.
	t.Run("divergent", func(t *testing.T) {
		lg := &testLog{}
		var (
			mu          sync.Mutex
			starts      = make(map[string]int) // attempts started, by piece
			straggler   string                 // the piece the slow worker took
			vetted      int                    // straggler results validated
			bothStarted = make(chan struct{})
			bothVetted  = make(chan struct{})
		)
		runner := func(slow bool) StreamRunner {
			return func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
				state, err := stubState(spec, files)
				if err != nil {
					return nil, err
				}
				piece := string(state)
				mu.Lock()
				attempt := starts[piece]
				starts[piece]++
				if slow && straggler == "" {
					straggler = piece
				}
				if piece == straggler && starts[piece] == 2 {
					close(bothStarted)
				}
				mu.Unlock()
				if !slow {
					time.Sleep(30 * time.Millisecond)
					return append(state, byte(attempt)), nil
				}
				select {
				case <-bothStarted:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return append(state, byte(attempt)), nil
			}
		}
		fast := startWorker(t, &Worker{Stream: runner(false), Logf: lg.logf})
		slow := startWorker(t, &Worker{Stream: runner(true), Logf: lg.logf})
		tasks, expected := makeTasks(t, 4)
		cfg := fastCfg(lg, fast, slow)
		cfg.StragglerMin = 50 * time.Millisecond
		cfg.StragglerFactor = 2
		cfg.Validate = func(task Task, state []byte) error {
			mu.Lock()
			held := string(state[:len(state)-1]) == straggler
			if held {
				if vetted++; vetted == 2 {
					close(bothVetted)
				}
			}
			mu.Unlock()
			if held {
				select {
				case <-bothVetted:
				case <-time.After(5 * time.Second):
				}
			}
			return nil
		}
		results, stats, err := Run(context.Background(), cfg, tasks)
		if err != nil {
			t.Fatalf("Run: %v\n%s", err, lg)
		}
		if len(results) != len(expected) {
			t.Fatalf("got %d results, want %d", len(results), len(expected))
		}
		flagged := 0
		for _, res := range results {
			if !bytes.Equal(res.State[:len(res.State)-1], expected[res.TaskID]) {
				t.Fatalf("task %d state mismatch", res.TaskID)
			}
			if res.Divergent {
				flagged++
			}
		}
		if stats.Duplicates != 1 || stats.Divergent != 1 || flagged != 1 {
			t.Fatalf("want one divergent duplicate, flagged on its result (%d flagged): %+v\n%s", flagged, stats, lg)
		}
		if !strings.Contains(lg.String(), "DIVERGENT duplicate") {
			t.Fatalf("divergence not logged:\n%s", lg)
		}
	})
}

func TestDispatchPoolDeathReturnsPartial(t *testing.T) {
	lg := &testLog{}
	// A dead endpoint: reserve a port, then close it.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lis.Addr().String()
	lis.Close()
	tasks, _ := makeTasks(t, 3)
	cfg := fastCfg(lg, deadAddr)
	cfg.MaxWorkerFailures = 2
	results, stats, err := Run(context.Background(), cfg, tasks)
	if err != nil {
		t.Fatalf("pool death must not be a Run error: %v", err)
	}
	if len(results) != 0 || stats.Completed != 0 {
		t.Fatalf("results from a dead pool: %+v", stats)
	}
	if !strings.Contains(lg.String(), "worker pool exhausted") {
		t.Fatalf("degradation not logged:\n%s", lg)
	}
}

func TestDispatchNoAddrs(t *testing.T) {
	tasks, _ := makeTasks(t, 1)
	if _, _, err := Run(context.Background(), Config{}, tasks); err == nil {
		t.Fatal("Run with no addresses must error")
	}
}

// TestDispatchNetemCutMidAssignmentRetries severs the link two and a half
// chunks into a four-chunk file. The runner is already reading by then:
// its read must end in io.ErrUnexpectedEOF (never a clean EOF on the
// prefix), the worker must send no result for that attempt, and the retry
// over a merely slow link must deliver the same state.
func TestDispatchNetemCutMidAssignmentRetries(t *testing.T) {
	lg := &testLog{}
	var cutReads, clean atomic.Int64
	runner := func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		state, err := stubState(spec, files)
		switch {
		case errors.Is(err, io.ErrUnexpectedEOF):
			cutReads.Add(1)
		case err == nil:
			clean.Add(1)
		}
		return state, err
	}
	addr := startWorker(t, &Worker{Stream: runner, Logf: lg.logf})
	tasks, expected := makeSizedTasks(t, 2, 4*chunkSize-100)
	cfg := fastCfg(lg, addr)
	var dials atomic.Int64
	cfg.Dial = func(ctx context.Context, a string) (net.Conn, error) {
		d := net.Dialer{Timeout: time.Second}
		conn, err := d.DialContext(ctx, "tcp", a)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return netem.WrapConn(conn, netem.ConnConfig{CutAfterBytes: 2*chunkSize + chunkSize/2, Seed: 1}), nil
		}
		return netem.WrapConn(conn, netem.ConnConfig{
			Latency: 2 * time.Millisecond,
			Jitter:  time.Millisecond,
			Seed:    2,
		}), nil
	}
	results, stats, err := Run(context.Background(), cfg, tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if stats.Retries == 0 {
		t.Fatalf("severed link did not force a retry: %+v\n%s", stats, lg)
	}
	if dials.Load() < 2 {
		t.Fatalf("no reconnect after the cut (%d dials)", dials.Load())
	}
	if cutReads.Load() != 1 || clean.Load() != 2 {
		t.Fatalf("runner saw %d cut reads and %d whole pieces, want 1 and 2\n%s", cutReads.Load(), clean.Load(), lg)
	}
	if n := strings.Count(lg.String(), "worker: piece"); n != 2 || !strings.Contains(lg.String(), "unexpected EOF") {
		t.Fatalf("worker reported %d pieces (want 2: none for the cut attempt) or no cut:\n%s", n, lg)
	}
}

func TestDispatchDialBackoffTimingFakeClock(t *testing.T) {
	// Deterministic timing: every dial is refused, so the worker loop
	// must sleep Delay(0)=100ms then Delay(1)=200ms before being
	// dropped at MaxWorkerFailures=3. The fake clock only moves when
	// the loop is actually asleep, so total advanced time is exactly
	// the backoff schedule.
	lg := &testLog{}
	clk := NewFakeClock()
	cfg := Config{
		Addrs:             []string{"w1"},
		MaxWorkerFailures: 3,
		Backoff:           NewBackoff(100*time.Millisecond, time.Second, 0, 1),
		Clock:             clk,
		// Keep the straggler monitor parked on one far-future timer so
		// Waiters()>=2 isolates the worker loop's backoff sleep.
		HeartbeatInterval: time.Hour,
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return nil, errors.New("connection refused")
		},
		Logf: lg.logf,
	}
	tasks := []Task{{ID: 0, Spec: json.RawMessage(`{}`)}}
	done := make(chan struct{})
	var stats RunStats
	var results []Result
	var runErr error
	go func() {
		results, stats, runErr = Run(context.Background(), cfg, tasks)
		close(done)
	}()
	var advanced time.Duration
	deadline := time.After(10 * time.Second)
loop:
	for {
		select {
		case <-done:
			break loop
		case <-deadline:
			t.Fatalf("Run never finished; advanced %v\n%s", advanced, lg)
		default:
		}
		if clk.Waiters() >= 2 {
			clk.Advance(50 * time.Millisecond)
			advanced += 50 * time.Millisecond
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	if len(results) != 0 || stats.Completed != 0 {
		t.Fatalf("refused dials produced results: %+v", stats)
	}
	if want := 300 * time.Millisecond; advanced != want {
		t.Fatalf("backoff schedule consumed %v of fake time, want exactly %v\n%s", advanced, want, lg)
	}
}

func TestWorkerDrainFinishesInFlight(t *testing.T) {
	lg := &testLog{}
	release := make(chan struct{})
	started := make(chan struct{})
	runner := func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		close(started)
		<-release
		return stubState(spec, files)
	}
	w := &Worker{Stream: runner, Logf: lg.logf}
	addr := startWorker(t, w)
	tasks, expected := makeTasks(t, 1)
	done := make(chan struct{})
	var results []Result
	var runErr error
	go func() {
		results, _, runErr = Run(context.Background(), fastCfg(lg, addr), tasks)
		close(done)
	}()
	<-started
	// Drain while the assignment is executing: it must finish and its
	// result must flush before the worker lets go.
	drained := make(chan struct{})
	go func() {
		w.Drain()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("Drain returned while an assignment was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-drained
	<-done
	if runErr != nil {
		t.Fatalf("Run: %v\n%s", runErr, lg)
	}
	checkResults(t, results, expected)
}
