package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// StreamRunner executes one assignment in the worker process: build the
// analysis the spec JSON describes, analyze the trace files, and return
// the serialized partial state. It is called as soon as the assign
// header is in; files holds one reader per announced file, in order, each
// yielding that file's bytes as the connection delivers them (and its
// name from a Name method). A reader
// ends in io.EOF only when its file arrived whole, and in
// io.ErrUnexpectedEOF when the transfer was cut — the runner must fail
// on that, not return a state for the prefix. It must respect ctx — the
// coordinator has already imposed the same deadline on its side — and
// must not use the readers after it returns.
type StreamRunner func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error)

// Runner is a StreamRunner that wants the files on disk: the worker
// spools every file under TempDir before calling it, so nothing
// overlaps.
//
// Deprecated: set Worker.Stream. Runner and TempDir remain only for the
// benchmark's layer tracer (tools/perf/layers/dist.go) and go when a
// benchmark change moves it to Stream. Its parent argument is always nil
// and its decoders argument always 0; both are kept for the same tracer.
type Runner func(ctx context.Context, spec []byte, parent []byte, files []string, decoders int) ([]byte, error)

// spooled adapts a Runner to the streaming core.
func spooled(run Runner, tempDir string) StreamRunner {
	return func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		dir, err := os.MkdirTemp(tempDir, "nfsworker-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		paths := make([]string, len(files))
		for i, r := range files {
			paths[i] = filepath.Join(dir, fmt.Sprintf("%03d", i))
			f, err := os.Create(paths[i])
			if err != nil {
				return nil, err
			}
			_, err = io.Copy(f, r)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
		}
		return run(ctx, spec, nil, paths, 0)
	}
}

// Fault is an injected failure mode for one assignment — the -flaky
// testing surface that makes the dist-smoke failure scenarios
// reproducible.
type Fault int

const (
	// FaultNone executes normally.
	FaultNone Fault = iota
	// FaultCrash computes the result, streams roughly half of it, then
	// kills the process — the killed-mid-stream scenario.
	FaultCrash
	// FaultHang stops cold before executing: no heartbeats, connection
	// held open — the hung-past-deadline scenario.
	FaultHang
	// FaultCorrupt flips one byte of the state blob before sending, so
	// the coordinator's checksum validation must catch it.
	FaultCorrupt
)

// Worker serves assignments from coordinators. Zero value plus a
// Stream runner is usable; Serve accepts connections until Drain.
type Worker struct {
	// Stream executes assignments. Required (unless Runner is set).
	Stream StreamRunner
	// Runner and TempDir are the deprecated spool-then-run form, used
	// when Stream is nil.
	Runner  Runner
	TempDir string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...interface{})
	// FaultFor, when non-nil, maps the 1-based global assignment
	// sequence number to an injected fault.
	FaultFor func(seq int) Fault
	// Exit terminates the process for FaultCrash; nil means os.Exit.
	// Tests substitute a soft exit.
	Exit func(code int)

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	stop     chan struct{}
	nAssign  int
	busy     sync.WaitGroup // in-flight assignments, for Drain
	handlers sync.WaitGroup // live connection handlers
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Serve accepts coordinator connections on lis until Drain (which
// returns nil) or a listener error. Each connection gets its own
// handler; assignments on one connection run serially, matching the
// coordinator's one-assignment-at-a-time protocol.
func (w *Worker) Serve(lis net.Listener) error {
	w.mu.Lock()
	w.lis = lis
	if w.stop == nil {
		w.stop = make(chan struct{})
	}
	if w.conns == nil {
		w.conns = make(map[net.Conn]struct{})
	}
	w.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			w.mu.Lock()
			draining := w.draining
			w.mu.Unlock()
			if draining {
				w.handlers.Wait()
				return nil
			}
			return err
		}
		w.mu.Lock()
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.handlers.Add(1)
		go func() {
			defer w.handlers.Done()
			w.handleConn(conn)
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
			conn.Close()
		}()
	}
}

// Drain is the SIGTERM path: stop accepting, let the in-flight
// assignment finish and its result flush, then close every
// connection. Serve returns nil once the drain completes.
func (w *Worker) Drain() {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return
	}
	w.draining = true
	if w.stop == nil {
		w.stop = make(chan struct{})
	}
	close(w.stop)
	lis := w.lis
	w.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	w.busy.Wait()
	w.mu.Lock()
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
}

// handleConn registers with the coordinator and serves its
// assignments until the connection closes or the worker drains.
func (w *Worker) handleConn(conn net.Conn) {
	fr := newFrameRW(conn)
	host, _ := os.Hostname()
	if err := fr.sendJSON(frameHello, hello{Version: ProtocolVersion, Host: host, PID: os.Getpid()}); err != nil {
		return
	}
	for {
		t, payload, err := fr.recv()
		if err != nil {
			return
		}
		switch t {
		case frameShutdown:
			return
		case frameAssign:
			var ah assignHeader
			if err := json.Unmarshal(payload, &ah); err != nil {
				w.logf("worker: bad assign header: %v", err)
				return
			}
			w.mu.Lock()
			if w.draining {
				w.mu.Unlock()
				return
			}
			w.busy.Add(1)
			w.nAssign++
			seq := w.nAssign
			w.mu.Unlock()
			err := w.runAssignment(fr, ah, seq)
			w.busy.Done()
			if err != nil {
				w.logf("worker: assignment %d: %v", ah.ID, err)
				return
			}
		default:
			w.logf("worker: unexpected frame 0x%02x", t)
			return
		}
	}
}

// pieceFile is one announced file of an assignment as the runner sees
// it: an io.Reader over the chunk payloads the receive loop has queued.
// The queue takes every chunk at once — the receive loop must never
// wait for the runner — and is bounded by the announced size instead.
type pieceFile struct {
	name string
	size int64 // announced; the blob may not outgrow it

	mu       sync.Mutex
	ready    *sync.Cond // a chunk was queued or the stream ended
	chunks   [][]byte   // received, not yet read
	received int64
	err      error // why the stream ended: io.EOF after the blob-end frame

	cur []byte // the reader's: what is left of the chunk being read
}

func newPieceFile(fm fileMeta) *pieceFile {
	pf := &pieceFile{name: fm.Name, size: fm.Size}
	pf.ready = sync.NewCond(&pf.mu)
	return pf
}

// Name is the announced base name, for the runner's error messages.
func (pf *pieceFile) Name() string { return pf.name }

// Read blocks until the connection has delivered more of the file.
func (pf *pieceFile) Read(p []byte) (int, error) {
	for len(pf.cur) == 0 {
		pf.mu.Lock()
		for len(pf.chunks) == 0 && pf.err == nil {
			pf.ready.Wait()
		}
		if len(pf.chunks) == 0 {
			err := pf.err
			pf.mu.Unlock()
			return 0, err
		}
		pf.cur, pf.chunks[0] = pf.chunks[0], nil
		pf.chunks = pf.chunks[1:]
		pf.mu.Unlock()
	}
	n := copy(p, pf.cur)
	pf.cur = pf.cur[n:]
	return n, nil
}

// push queues one received chunk, which the queue then owns.
func (pf *pieceFile) push(chunk []byte) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.received += int64(len(chunk))
	if pf.received > pf.size {
		return fmt.Errorf("%s: blob exceeds its announced %d bytes", pf.name, pf.size)
	}
	if pf.err == nil {
		pf.chunks = append(pf.chunks, chunk)
		pf.ready.Signal()
	}
	return nil
}

// end closes the stream with err unless it has ended already. Anything
// but io.EOF also drops what is queued: a cut stream fails at once, and
// a runner that has returned reads nothing more.
func (pf *pieceFile) end(err error) {
	pf.mu.Lock()
	if pf.err == nil {
		pf.err = err
		if err != io.EOF {
			pf.chunks = nil
		}
		pf.ready.Broadcast()
	}
	pf.mu.Unlock()
}

// recvFiles routes the assignment's file blobs into files as they
// arrive, in announced order, through the last blob-end frame.
func recvFiles(fr *frameRW, files []*pieceFile) error {
	for _, pf := range files {
		for open := true; open; {
			t, payload, err := fr.recv()
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // a blob was promised
			}
			if err != nil {
				return fmt.Errorf("receiving %s: %w", pf.name, err)
			}
			switch t {
			case frameChunk:
				if err := pf.push(payload); err != nil {
					return err
				}
			case frameBlobEnd:
				pf.end(io.EOF)
				open = false
			default:
				return fmt.Errorf("receiving %s: unexpected frame 0x%02x inside blob", pf.name, t)
			}
		}
	}
	return nil
}

// errRunnerReturned ends the streams of a runner that is gone.
var errRunnerReturned = errors.New("dispatch: runner has returned")

// runAssignment starts the runner on the assignment's files while they
// are still arriving, heartbeating from then on, and streams the result
// back once the transfer and the runner are both done. A
// non-nil return kills the connection; analysis errors are reported
// in-band and keep the connection alive.
func (w *Worker) runAssignment(fr *frameRW, ah assignHeader, seq int) error {
	fault := FaultNone
	if w.FaultFor != nil {
		fault = w.FaultFor(seq)
	}
	if fault == FaultHang {
		// A wedged worker: the connection stays open, nothing more is
		// read, heartbeats never start, work never runs. The coordinator's
		// deadline or watchdog must recover; the process unwedges only on
		// drain.
		w.logf("worker: FAULT hang on assignment %d (piece %d)", seq, ah.ID)
		<-w.stopCh()
		return fmt.Errorf("unwedged by drain")
	}
	files := make([]*pieceFile, len(ah.Files))
	readers := make([]io.Reader, len(ah.Files))
	for i, fm := range ah.Files {
		if fm.Size < 0 || fm.Size > maxBlobLen {
			return fmt.Errorf("%s: announced size %d outside [0, %d]", fm.Name, fm.Size, int64(maxBlobLen))
		}
		files[i] = newPieceFile(fm)
		readers[i] = files[i]
	}

	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if ah.DeadlineMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ah.DeadlineMS)*time.Millisecond)
	}
	defer cancel()

	// Heartbeats flow from here to the result, from a side goroutine;
	// frameRW serializes them against the result stream.
	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	interval := time.Duration(ah.HeartbeatMS) * time.Millisecond
	if interval > 0 {
		hbDone.Add(1)
		go func() {
			defer hbDone.Done()
			for {
				select {
				case <-hbStop:
					return
				case <-time.After(interval):
					if err := fr.sendJSON(frameHeartbeat, heartbeat{ID: ah.ID}); err != nil {
						return
					}
				}
			}
		}()
	}

	run := w.Stream
	if run == nil {
		run = spooled(w.Runner, w.TempDir)
	}
	var state []byte
	var runErr error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		state, runErr = run(ctx, ah.Spec, readers)
		for _, pf := range files {
			pf.end(errRunnerReturned)
		}
	}()
	// This goroutine is the connection's reader: it feeds the runner.
	recvErr := recvFiles(fr, files)
	if recvErr != nil {
		for _, pf := range files {
			pf.end(io.ErrUnexpectedEOF)
		}
		cancel()
	}
	<-ran
	close(hbStop)
	hbDone.Wait()
	if recvErr != nil {
		return recvErr
	}

	if runErr != nil {
		w.logf("worker: piece %d failed: %v", ah.ID, runErr)
		return fr.sendJSON(frameError, errorMsg{ID: ah.ID, Msg: runErr.Error()})
	}
	switch fault {
	case FaultCorrupt:
		w.logf("worker: FAULT corrupting result of assignment %d (piece %d)", seq, ah.ID)
		state = append([]byte(nil), state...)
		state[len(state)/2] ^= 0xFF
	case FaultCrash:
		w.logf("worker: FAULT crashing mid-stream on assignment %d (piece %d)", seq, ah.ID)
		if err := fr.sendJSON(frameResult, resultHeader{ID: ah.ID, Size: int64(len(state))}); err != nil {
			return err
		}
		// Stream some of the blob, then die without the terminator.
		half := state[:len(state)/2+1]
		for off := 0; off < len(half); off += chunkSize {
			end := off + chunkSize
			if end > len(half) {
				end = len(half)
			}
			if err := fr.send(frameChunk, half[off:end]); err != nil {
				return err
			}
		}
		exit := w.Exit
		if exit == nil {
			exit = os.Exit
		}
		exit(3)
		return fmt.Errorf("crash fault: exit hook returned")
	}
	if err := fr.sendJSON(frameResult, resultHeader{ID: ah.ID, Size: int64(len(state))}); err != nil {
		return err
	}
	if err := fr.sendBlob(state); err != nil {
		return err
	}
	w.logf("worker: piece %d done (%d state bytes)", ah.ID, len(state))
	return nil
}

func (w *Worker) stopCh() chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stop == nil {
		w.stop = make(chan struct{})
	}
	return w.stop
}
