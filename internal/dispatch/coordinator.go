package dispatch

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Task is one piece of a distributed analysis: which trace files to
// analyze under which spec. Files are coordinator-local paths; their
// bytes are streamed to the worker, so workers need no shared
// filesystem.
type Task struct {
	ID    int
	Spec  json.RawMessage
	Files []string
}

// Result is one completed task: the serialized partial state plus the
// provenance the logs and dedup want.
type Result struct {
	TaskID  int
	State   []byte
	Digest  [sha256.Size]byte
	Worker  string
	Attempt int
	Elapsed time.Duration
	// Divergent reports that another valid attempt at the task returned
	// different state bytes. State bytes are canonical, so that is a
	// determinism bug, and the caller must not trust State.
	Divergent bool
}

// RunStats counts what the supervision machinery did during one Run —
// the observability surface the smoke tests assert re-dispatch on.
type RunStats struct {
	// Dispatched counts assignments sent to workers, including retries
	// and speculative duplicates.
	Dispatched int
	// Failures counts attempts that ended without a valid result:
	// connection loss, deadline, heartbeat loss, in-band errors,
	// rejected state blobs.
	Failures int
	// Retries counts failed attempts that were re-dispatched.
	Retries int
	// Speculations counts straggler duplicates launched.
	Speculations int
	// Duplicates counts valid results discarded because another
	// attempt won the task first.
	Duplicates int
	// Divergent counts the duplicates whose digest differs from the
	// winner's (see Result.Divergent).
	Divergent int
	// Completed counts tasks that finished with a valid result.
	Completed int
}

// Config tunes the coordinator. The zero value of every field gets a
// sensible default from fillDefaults.
type Config struct {
	// Addrs are the worker endpoints to dial.
	Addrs []string
	// DialTimeout bounds connection establishment and registration.
	DialTimeout time.Duration
	// AssignTimeout is the per-assignment deadline: an attempt running
	// longer is abandoned (its connection closed) and re-dispatched.
	AssignTimeout time.Duration
	// HeartbeatInterval is how often workers are told to heartbeat.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a worker dead when nothing — heartbeat,
	// chunk, or result — arrives for this long during an assignment.
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds dispatch attempts per task, speculative
	// duplicates included.
	MaxAttempts int
	// MaxWorkerFailures drops a worker after this many consecutive
	// failures (dial errors or failed assignments), so a dead or
	// always-hanging endpoint stops absorbing re-dispatches.
	MaxWorkerFailures int
	// StragglerFactor and StragglerMin set the speculation threshold:
	// a task is a straggler when it has run longer than
	// max(StragglerMin, StragglerFactor × median completed duration).
	StragglerFactor float64
	StragglerMin    time.Duration
	// Backoff paces retries; nil gets the default policy.
	Backoff *Backoff
	// Clock injects time; nil means the real clock.
	Clock Clock
	// Dial overrides connection establishment — the netem fault
	// injection hook. nil uses a plain TCP dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Validate vets a result blob beyond the transport digest; a
	// non-nil error rejects the attempt as if it had failed. nil
	// accepts any blob. It runs on the goroutine of the connection the
	// blob arrived on, concurrently with other connections', and state
	// is the slice that becomes Result.State — a hook that has to decode
	// the state to vet it can keep what it decoded.
	Validate func(t Task, state []byte) error
	// Logf receives supervision events; nil discards them. It must be
	// safe for concurrent use.
	Logf func(format string, args ...interface{})
}

func (c *Config) fillDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.AssignTimeout <= 0 {
		c.AssignTimeout = 10 * time.Minute
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * c.HeartbeatInterval
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.MaxWorkerFailures <= 0 {
		c.MaxWorkerFailures = 3
	}
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = 2
	}
	if c.StragglerMin <= 0 {
		c.StragglerMin = 2 * time.Second
	}
	if c.Backoff == nil {
		c.Backoff = NewBackoff(200*time.Millisecond, 10*time.Second, 0.2, 1)
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	if c.Dial == nil {
		dialTimeout := c.DialTimeout
		c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: dialTimeout}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
}

// taskState is the coordinator's view of one task's lifecycle.
type taskState struct {
	task       Task
	done       bool
	failed     bool // attempts exhausted; caller must fall back
	attempts   int  // dispatches started
	inflight   int
	started    time.Time // most recent dispatch
	speculated bool
	result     *Result
}

// run is one Run invocation's shared state.
type run struct {
	cfg     Config
	tasks   map[int]*taskState
	pending chan int

	mu        sync.Mutex
	remaining int
	durations []time.Duration
	stats     RunStats
	allDone   chan struct{}
}

// errConnDone distinguishes "this connection finished its role" from
// transport failures inside the serve loop.
var errConnDone = errors.New("dispatch: connection done")

// Run dispatches tasks across the configured workers and returns
// every task's winning result. Tasks missing from the result set
// either exhausted MaxAttempts or outlived the worker pool; the
// caller decides whether to fall back to local execution. Run returns
// a non-nil error only when ctx was cancelled.
func Run(ctx context.Context, cfg Config, tasks []Task) ([]Result, RunStats, error) {
	cfg.fillDefaults()
	if len(tasks) == 0 {
		return nil, RunStats{}, nil
	}
	if len(cfg.Addrs) == 0 {
		return nil, RunStats{}, fmt.Errorf("dispatch: no worker addresses")
	}
	r := &run{
		cfg:       cfg,
		tasks:     make(map[int]*taskState, len(tasks)),
		pending:   make(chan int, len(tasks)*(cfg.MaxAttempts+2)),
		remaining: len(tasks),
		allDone:   make(chan struct{}),
	}
	for _, t := range tasks {
		if _, dup := r.tasks[t.ID]; dup {
			return nil, RunStats{}, fmt.Errorf("dispatch: duplicate task id %d", t.ID)
		}
		r.tasks[t.ID] = &taskState{task: t}
	}
	// Deterministic initial order: ascending task ID.
	ids := make([]int, 0, len(tasks))
	for id := range r.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r.pending <- id
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var pool sync.WaitGroup
	for _, addr := range cfg.Addrs {
		pool.Add(1)
		go func(addr string) {
			defer pool.Done()
			r.workerLoop(ctx, addr)
		}(addr)
	}
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		r.stragglerMonitor(ctx)
	}()

	poolDead := make(chan struct{})
	go func() {
		pool.Wait()
		close(poolDead)
	}()

	var runErr error
	select {
	case <-r.allDone:
	case <-poolDead:
		r.mu.Lock()
		if r.remaining > 0 {
			r.cfg.Logf("dispatch: worker pool exhausted with %d pieces unfinished", r.remaining)
		}
		r.mu.Unlock()
	case <-ctx.Done():
		runErr = ctx.Err()
	}
	cancel()
	pool.Wait()
	mon.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	results := make([]Result, 0, len(r.tasks))
	for _, id := range ids {
		if st := r.tasks[id]; st.result != nil {
			results = append(results, *st.result)
		}
	}
	return results, r.stats, runErr
}

func (r *run) sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-r.cfg.Clock.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// workerLoop owns one worker endpoint: dial, serve assignments,
// reconnect on failure, give up after MaxWorkerFailures consecutive
// failures.
func (r *run) workerLoop(ctx context.Context, addr string) {
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.allDone:
			return
		default:
		}
		conn, err := r.cfg.Dial(ctx, addr)
		if err != nil {
			fails++
			r.cfg.Logf("dispatch: worker %s: dial failed (%d/%d): %v", addr, fails, r.cfg.MaxWorkerFailures, err)
			if fails >= r.cfg.MaxWorkerFailures {
				r.cfg.Logf("dispatch: worker %s: dropped from pool", addr)
				return
			}
			if !r.sleepCtx(ctx, r.cfg.Backoff.Delay(fails-1)) {
				return
			}
			continue
		}
		err = r.serveConn(ctx, addr, conn, &fails)
		conn.Close()
		if err == errConnDone || ctx.Err() != nil {
			return
		}
		if err != nil {
			fails++
			if fails >= r.cfg.MaxWorkerFailures {
				r.cfg.Logf("dispatch: worker %s: dropped from pool after %d consecutive failures", addr, fails)
				return
			}
			if !r.sleepCtx(ctx, r.cfg.Backoff.Delay(fails-1)) {
				return
			}
		}
	}
}

// frame is one received frame, delivered by the connection's reader
// goroutine.
type frame struct {
	t       byte
	payload []byte
}

// serveConn registers with one worker and feeds it assignments until
// the connection dies, the worker pool's work is done, or ctx cancels.
// A nil or errConnDone return means the connection ended cleanly.
func (r *run) serveConn(ctx context.Context, addr string, conn net.Conn, fails *int) error {
	fr := newFrameRW(conn)
	frames := make(chan frame, 16)
	readErr := make(chan error, 1)
	go func() {
		for {
			t, payload, err := fr.recv()
			if err != nil {
				readErr <- err
				return
			}
			select {
			case frames <- frame{t, payload}:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Registration.
	select {
	case f := <-frames:
		if f.t != frameHello {
			return fmt.Errorf("worker %s: expected hello, got frame 0x%02x", addr, f.t)
		}
		var h hello
		if err := json.Unmarshal(f.payload, &h); err != nil {
			return fmt.Errorf("worker %s: bad hello: %w", addr, err)
		}
		if h.Version != ProtocolVersion {
			r.cfg.Logf("dispatch: worker %s: protocol version %d != %d; dropping", addr, h.Version, ProtocolVersion)
			return errConnDone
		}
		r.cfg.Logf("dispatch: worker %s registered (host %s, pid %d)", addr, h.Host, h.PID)
	case err := <-readErr:
		return fmt.Errorf("worker %s: registration: %w", addr, err)
	case <-r.cfg.Clock.After(r.cfg.DialTimeout):
		return fmt.Errorf("worker %s: registration timed out", addr)
	case <-ctx.Done():
		return errConnDone
	}

	for {
		var id int
		select {
		case id = <-r.pending:
		case <-r.allDone:
			fr.send(frameShutdown, nil)
			return errConnDone
		case <-ctx.Done():
			return errConnDone
		}
		st, attempt, ok := r.claim(id)
		if !ok {
			continue
		}
		err := r.runAssignment(ctx, addr, conn, fr, frames, readErr, st, attempt)
		if err != nil {
			r.fail(addr, st, attempt, err)
			return err
		}
		*fails = 0
	}
}

// claim marks one dispatch attempt of task id, refusing tasks already
// won, exhausted, or at their attempt budget.
func (r *run) claim(id int) (*taskState, int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.tasks[id]
	if st == nil || st.done || st.failed || st.attempts >= r.cfg.MaxAttempts {
		return nil, 0, false
	}
	attempt := st.attempts
	st.attempts++
	st.inflight++
	st.started = r.cfg.Clock.Now()
	r.stats.Dispatched++
	return st, attempt, true
}

// runAssignment pushes one assignment to a worker and supervises it to
// a result, an in-band error, or a timeout. In-band analysis errors
// and rejected blobs are handled here (attempt failed, connection
// healthy, nil return… ); transport-level trouble returns an error so
// the caller tears the connection down.
func (r *run) runAssignment(ctx context.Context, addr string, conn net.Conn, fr *frameRW, frames chan frame, readErr chan error, st *taskState, attempt int) error {
	t := st.task
	files := make([]fileMeta, len(t.Files))
	for i, p := range t.Files {
		size := int64(0)
		if fi, err := os.Stat(p); err == nil {
			size = fi.Size()
		}
		files[i] = fileMeta{Name: filepath.Base(p), Size: size}
	}
	ah := assignHeader{
		ID:          t.ID,
		Attempt:     attempt,
		Spec:        t.Spec,
		Files:       files,
		DeadlineMS:  r.cfg.AssignTimeout.Milliseconds(),
		HeartbeatMS: r.cfg.HeartbeatInterval.Milliseconds(),
	}
	r.cfg.Logf("dispatch: worker %s: piece %d attempt %d dispatched (%d files)", addr, t.ID, attempt, len(t.Files))

	// The piece goes out from its own goroutine: a write to a worker that
	// has stopped reading blocks, and only the select below can give up
	// on it. Abandoning a transfer closes the connection, which is what
	// unblocks the write.
	sent := make(chan error, 1)
	go func() { sent <- sendPiece(fr, ah, t) }()
	sending := true
	defer func() {
		if sending {
			conn.Close()
			<-sent
		}
	}()
	sendDone := func(err error) error {
		sending = false
		if err != nil {
			return fmt.Errorf("sending piece %d: %w", t.ID, err)
		}
		return nil
	}

	deadline := r.cfg.Clock.After(r.cfg.AssignTimeout)
	watchdog := r.cfg.Clock.After(r.cfg.HeartbeatTimeout)
	start := r.cfg.Clock.Now()
	var written int64
	var blob []byte
	collecting := false
	for {
		// Prefer buffered frames over a pending read error: a worker
		// that flushes its result and immediately closes (a drain, say)
		// has the error racing the final frames, and Go's select picks
		// among ready cases at random. The reader goroutine delivers
		// every frame before the error, so draining frames first cannot
		// miss anything.
		var f frame
		gotFrame := true
		select {
		case f = <-frames:
		default:
			gotFrame = false
		}
		if !gotFrame {
			select {
			case f = <-frames:
			case err := <-sent:
				if err := sendDone(err); err != nil {
					return err
				}
				watchdog = r.cfg.Clock.After(r.cfg.HeartbeatTimeout)
				continue
			case err := <-readErr:
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return fmt.Errorf("connection lost mid-assignment: %w", err)
			case <-deadline:
				return fmt.Errorf("deadline: piece %d attempt %d exceeded %s", t.ID, attempt, r.cfg.AssignTimeout)
			case <-watchdog:
				if !sending {
					return fmt.Errorf("heartbeat: worker silent for %s during piece %d", r.cfg.HeartbeatTimeout, t.ID)
				}
				// While the piece is going out, liveness is the worker
				// taking bytes; its heartbeats say nothing about that.
				if n := fr.written.Load(); n != written {
					written = n
					watchdog = r.cfg.Clock.After(r.cfg.HeartbeatTimeout)
					continue
				}
				return fmt.Errorf("transfer: worker took no bytes of piece %d for %s", t.ID, r.cfg.HeartbeatTimeout)
			case <-ctx.Done():
				return errConnDone
			}
		}
		if sending {
			// Only heartbeats are due before the transfer is over; the
			// sender may just not have reported yet, so give it until the
			// watchdog.
			if f.t == frameHeartbeat {
				continue
			}
			select {
			case err := <-sent:
				if err := sendDone(err); err != nil {
					return err
				}
			case <-watchdog:
				return fmt.Errorf("frame 0x%02x before piece %d was sent", f.t, t.ID)
			case <-ctx.Done():
				return errConnDone
			}
		}
		watchdog = r.cfg.Clock.After(r.cfg.HeartbeatTimeout)
		switch f.t {
		case frameHeartbeat:
			// Liveness only; payload is advisory progress.
		case frameError:
			var em errorMsg
			if err := json.Unmarshal(f.payload, &em); err != nil {
				return fmt.Errorf("bad error frame: %w", err)
			}
			r.fail(addr, st, attempt, fmt.Errorf("worker reported: %s", em.Msg))
			return nil
		case frameResult:
			var rh resultHeader
			if err := json.Unmarshal(f.payload, &rh); err != nil {
				return fmt.Errorf("bad result header: %w", err)
			}
			if rh.ID != t.ID {
				return fmt.Errorf("result for piece %d while awaiting %d", rh.ID, t.ID)
			}
			collecting = true
			// Sized from the header, but only so far on its word.
			blob = make([]byte, 0, min(max(rh.Size, 0), 16*chunkSize))
		case frameChunk:
			if !collecting {
				return fmt.Errorf("chunk outside result blob")
			}
			if int64(len(blob))+int64(len(f.payload)) > maxBlobLen {
				return fmt.Errorf("result blob exceeds limit")
			}
			blob = append(blob, f.payload...)
		case frameBlobEnd:
			if !collecting {
				return fmt.Errorf("blob end outside result blob")
			}
			res := &Result{
				TaskID:  t.ID,
				State:   blob,
				Digest:  sha256.Sum256(blob),
				Worker:  addr,
				Attempt: attempt,
				Elapsed: r.cfg.Clock.Now().Sub(start),
			}
			if r.cfg.Validate != nil {
				if err := r.cfg.Validate(t, res.State); err != nil {
					r.fail(addr, st, attempt, fmt.Errorf("state rejected: %w", err))
					return nil
				}
			}
			r.complete(addr, st, res)
			return nil
		default:
			return fmt.Errorf("unexpected frame 0x%02x", f.t)
		}
	}
}

// fail records one failed attempt and schedules the retry (after
// backoff) or, when the budget is spent, marks the task permanently
// failed so Run can finish and the caller can fall back.
func (r *run) fail(addr string, st *taskState, attempt int, cause error) {
	r.mu.Lock()
	st.inflight--
	r.stats.Failures++
	if st.done {
		r.mu.Unlock()
		return
	}
	if st.attempts >= r.cfg.MaxAttempts && st.inflight == 0 {
		st.failed = true
		r.decRemainingLocked()
		r.mu.Unlock()
		r.cfg.Logf("dispatch: piece %d: attempt %d failed (%v); %d attempts exhausted, giving up",
			st.task.ID, attempt, cause, r.cfg.MaxAttempts)
		return
	}
	if st.attempts >= r.cfg.MaxAttempts {
		// An attempt budget is spent but a sibling attempt is still
		// running; let it decide the task's fate.
		r.mu.Unlock()
		r.cfg.Logf("dispatch: piece %d: attempt %d failed (%v); awaiting in-flight attempt", st.task.ID, attempt, cause)
		return
	}
	r.stats.Retries++
	r.mu.Unlock()
	delay := r.cfg.Backoff.Delay(attempt)
	r.cfg.Logf("dispatch: worker %s: piece %d attempt %d failed (%v); re-dispatching in %s",
		addr, st.task.ID, attempt, cause, delay)
	go func() {
		r.cfg.Clock.Sleep(delay)
		select {
		case r.pending <- st.task.ID:
		case <-r.allDone:
		}
	}()
}

// complete records a winning result; later valid results for the same
// task are counted and discarded — first valid result wins. A duplicate
// whose digest differs marks the winner Divergent.
func (r *run) complete(addr string, st *taskState, res *Result) {
	r.mu.Lock()
	st.inflight--
	if st.done {
		r.stats.Duplicates++
		if st.result.Digest == res.Digest {
			r.mu.Unlock()
			r.cfg.Logf("dispatch: piece %d: identical duplicate result from %s discarded", st.task.ID, addr)
			return
		}
		r.stats.Divergent++
		st.result.Divergent = true
		winner := st.result.Digest
		r.mu.Unlock()
		r.cfg.Logf("dispatch: piece %d: DIVERGENT duplicate result from %s (digest %x, winner %x)",
			st.task.ID, addr, res.Digest[:8], winner[:8])
		return
	}
	st.done = true
	st.result = res
	r.stats.Completed++
	r.durations = append(r.durations, res.Elapsed)
	r.decRemainingLocked()
	r.mu.Unlock()
	r.cfg.Logf("dispatch: worker %s: piece %d complete in %s (attempt %d, digest %x)",
		addr, st.task.ID, res.Elapsed.Round(time.Millisecond), res.Attempt, res.Digest[:8])
}

func (r *run) decRemainingLocked() {
	r.remaining--
	if r.remaining == 0 {
		close(r.allDone)
	}
}

// stragglerMonitor launches speculative duplicates of tasks running
// far past the completed median, so one slow machine cannot stall the
// run. One speculation per task; first valid result still wins.
func (r *run) stragglerMonitor(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.allDone:
			return
		case <-r.cfg.Clock.After(r.cfg.HeartbeatInterval):
		}
		now := r.cfg.Clock.Now()
		r.mu.Lock()
		threshold := r.stragglerThresholdLocked()
		if threshold > 0 {
			for _, st := range r.tasks {
				if st.done || st.failed || st.speculated || st.inflight != 1 ||
					st.attempts >= r.cfg.MaxAttempts {
					continue
				}
				elapsed := now.Sub(st.started)
				if elapsed <= threshold {
					continue
				}
				st.speculated = true
				r.stats.Speculations++
				r.cfg.Logf("dispatch: piece %d straggling (%s > %s); speculatively re-dispatching",
					st.task.ID, elapsed.Round(time.Millisecond), threshold.Round(time.Millisecond))
				select {
				case r.pending <- st.task.ID:
				default:
				}
			}
		}
		r.mu.Unlock()
	}
}

// stragglerThresholdLocked computes the speculation threshold from the
// completed-duration median, or 0 when nothing has completed yet.
func (r *run) stragglerThresholdLocked() time.Duration {
	if len(r.durations) == 0 {
		return 0
	}
	ds := append([]time.Duration(nil), r.durations...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	th := time.Duration(r.cfg.StragglerFactor * float64(ds[len(ds)/2]))
	if th < r.cfg.StragglerMin {
		th = r.cfg.StragglerMin
	}
	return th
}

// sendPiece writes one whole assignment: the header and every file.
func sendPiece(fr *frameRW, ah assignHeader, t Task) error {
	if err := fr.sendJSON(frameAssign, ah); err != nil {
		return err
	}
	for _, p := range t.Files {
		if err := sendFileBlob(fr, p); err != nil {
			return err
		}
	}
	return nil
}

// sendFileBlob streams one file's bytes as a blob without loading it
// whole.
func sendFileBlob(fr *frameRW, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, chunkSize)
	for {
		n, err := f.Read(buf)
		if n > 0 {
			if serr := fr.send(frameChunk, buf[:n]); serr != nil {
				return serr
			}
		}
		if err == io.EOF {
			return fr.send(frameBlobEnd, nil)
		}
		if err != nil {
			return err
		}
	}
}
