package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netem"
)

// dialThrough wraps the first connection cfg dials in the given
// impairment and leaves later ones alone.
func dialThrough(cfg *Config, first netem.ConnConfig) {
	var dials atomic.Int64
	cfg.Dial = func(ctx context.Context, a string) (net.Conn, error) {
		d := net.Dialer{Timeout: time.Second}
		conn, err := d.DialContext(ctx, "tcp", a)
		if err != nil || dials.Add(1) > 1 {
			return conn, err
		}
		return netem.WrapConn(conn, first), nil
	}
}

// TestWorkerStreamsWhileReceiving holds the coordinator's link part way
// into a four-chunk file. The runner must get the file's first bytes
// while the link is held — when the blob-end frame cannot have been
// written yet — and the run completes once the link is released.
func TestWorkerStreamsWhileReceiving(t *testing.T) {
	lg := &testLog{}
	first := make(chan struct{})
	runner := func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		head := make([]byte, 64)
		if _, err := io.ReadFull(files[0], head); err != nil {
			return nil, err
		}
		close(first)
		return stubState(spec, []io.Reader{io.MultiReader(bytes.NewReader(head), files[0])})
	}
	addr := startWorker(t, &Worker{Stream: runner, Logf: lg.logf})
	tasks, expected := makeSizedTasks(t, 1, 4*chunkSize-100)
	cfg := fastCfg(lg, addr)
	cfg.HeartbeatTimeout = 10 * time.Second // the hold below is not a stall
	release := make(chan struct{})
	dialThrough(&cfg, netem.ConnConfig{HoldAfterBytes: chunkSize + chunkSize/2, Release: release})

	done := make(chan struct{})
	var results []Result
	var runErr error
	go func() {
		defer close(done)
		results, _, runErr = Run(context.Background(), cfg, tasks)
	}()
	select {
	case <-first:
	case <-done:
		t.Fatalf("run ended with the link still held: %v\n%s", runErr, lg)
	case <-time.After(5 * time.Second):
		t.Fatalf("runner saw no byte of a file whose transfer is held mid-way: the worker is not streaming\n%s", lg)
	}
	close(release)
	<-done
	if runErr != nil {
		t.Fatalf("Run: %v\n%s", runErr, lg)
	}
	checkResults(t, results, expected)
}

// TestDispatchStalledTransferAbandoned: a worker that stops taking bytes
// mid-transfer blocks the coordinator's write; the watchdog must give up
// on it after HeartbeatTimeout (not the 5 s deadline) even though the
// worker's heartbeats keep arriving, and the piece is re-dispatched.
func TestDispatchStalledTransferAbandoned(t *testing.T) {
	lg := &testLog{}
	addr := startWorker(t, &Worker{Stream: stubRunner(0), Logf: lg.logf})
	tasks, expected := makeSizedTasks(t, 2, 4*chunkSize-100)
	cfg := fastCfg(lg, addr)
	dialThrough(&cfg, netem.ConnConfig{HoldAfterBytes: chunkSize + chunkSize/2}) // never released
	start := time.Now()
	results, stats, err := Run(context.Background(), cfg, tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if stats.Retries == 0 || !strings.Contains(lg.String(), "transfer: worker took no bytes") {
		t.Fatalf("stalled transfer was not abandoned by the watchdog: %+v\n%s", stats, lg)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("recovery took %v; only the deadline can have fired", elapsed)
	}
}

// TestDeprecatedRunnerSpoolsUnderTempDir keeps the path-taking adapter
// honest until the benchmark's tracer stops using it: the files exist
// under TempDir while the runner runs and are gone afterwards.
func TestDeprecatedRunnerSpoolsUnderTempDir(t *testing.T) {
	lg := &testLog{}
	spool := t.TempDir()
	runner := func(ctx context.Context, spec, _ []byte, files []string, decoders int) ([]byte, error) {
		var readers []io.Reader
		for _, p := range files {
			if !strings.HasPrefix(p, filepath.Join(spool, "nfsworker-")) {
				return nil, errors.New("spooled outside TempDir: " + p)
			}
			f, err := os.Open(p)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			readers = append(readers, f)
		}
		return stubState(spec, readers)
	}
	addr := startWorker(t, &Worker{Runner: runner, TempDir: spool, Logf: lg.logf})
	tasks, expected := makeSizedTasks(t, 2, chunkSize+100)
	results, _, err := Run(context.Background(), fastCfg(lg, addr), tasks)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, lg)
	}
	checkResults(t, results, expected)
	if left, _ := os.ReadDir(spool); len(left) != 0 {
		t.Fatalf("%d spool entries left behind", len(left))
	}
}

// assignmentPeer serves one connection with w.handleConn and returns the
// coordinator's side of it, past the hello, with everything the worker
// sends afterwards discarded. wait blocks until the handler has returned.
func assignmentPeer(t testing.TB, w *Worker) (fr *frameRW, conn net.Conn, wait func()) {
	t.Helper()
	a, b := net.Pipe()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		w.handleConn(b)
		b.Close()
	}()
	fr = newFrameRW(a)
	if typ, _, err := fr.recv(); err != nil || typ != frameHello {
		t.Fatalf("hello: frame 0x%02x, err %v", typ, err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, _, err := fr.recv(); err != nil {
				return
			}
		}
	}()
	return fr, a, func() {
		select {
		case <-handled:
		case <-time.After(10 * time.Second):
			t.Fatal("connection handler never returned")
		}
		a.Close()
		<-drained
	}
}

// TestWorkerBoundsWhatItBuffers: the announced sizes are the memory bound
// of an assignment, so the worker ends the connection — and its runner
// sees a cut, never a state-worthy EOF — on a blob that outgrows its
// size, a chunk past the last announced file, or an absurd announcement.
func TestWorkerBoundsWhatItBuffers(t *testing.T) {
	cases := []struct {
		name   string
		files  []fileMeta
		frames []frame // sent after the assign header
		want   string  // in the worker's log
		whole  bool    // the announced files do arrive whole first
	}{
		{"blob longer than announced", []fileMeta{{Name: "a", Size: 10}},
			[]frame{{frameChunk, make([]byte, 8)}, {frameChunk, make([]byte, 3)}},
			"a: blob exceeds its announced 10 bytes", false},
		{"chunk after the last file", []fileMeta{{Name: "a", Size: 10}},
			[]frame{{frameChunk, make([]byte, 10)}, {frameBlobEnd, nil}, {frameChunk, make([]byte, 1)}},
			"unexpected frame 0x03", true},
		{"chunk with no file announced", nil,
			[]frame{{frameChunk, make([]byte, 1)}},
			"unexpected frame 0x03", true},
		{"announcement beyond the blob limit", []fileMeta{{Name: "a", Size: maxBlobLen + 1}},
			nil, "announced size", false},
		{"control frame inside a blob", []fileMeta{{Name: "a", Size: 10}},
			[]frame{{frameChunk, make([]byte, 4)}, {frameAssign, []byte("{}")}},
			"unexpected frame 0x02 inside blob", false},
	}
	for _, tc := range cases {
		lg := &testLog{}
		var sawEOF atomic.Bool
		w := &Worker{Logf: lg.logf, Stream: func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
			state, err := stubState(spec, files)
			sawEOF.Store(err == nil)
			return state, err
		}}
		fr, _, wait := assignmentPeer(t, w)
		if err := fr.sendJSON(frameAssign, assignHeader{ID: 1, Spec: json.RawMessage(`{}`), Files: tc.files}); err != nil {
			t.Fatal(err)
		}
		for _, f := range tc.frames {
			if err := fr.send(f.t, f.payload); err != nil {
				break // the worker has already hung up
			}
		}
		wait()
		if !strings.Contains(lg.String(), tc.want) {
			t.Errorf("%s: worker log lacks %q:\n%s", tc.name, tc.want, lg)
		}
		if sawEOF.Load() != tc.whole {
			t.Errorf("%s: runner read its files to a clean EOF: %v, want %v", tc.name, sawEOF.Load(), tc.whole)
		}
	}
}

// TestWorkerIgnoresDecodersField: an assign header may carry a field the
// worker does not know, such as the decoder count coordinators sent
// before the read-ahead. The worker must ignore it and run the piece as
// usual.
func TestWorkerIgnoresDecodersField(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	w := &Worker{Stream: stubRunner(0)}
	go func() {
		w.handleConn(b)
		b.Close()
	}()
	fr := newFrameRW(a)
	if typ, _, err := fr.recv(); err != nil || typ != frameHello {
		t.Fatalf("hello: frame 0x%02x, err %v", typ, err)
	}
	spec, content := []byte(`{"kind":"stub"}`), []byte("op 0;")
	header := `{"id":7,"attempt":0,"spec":` + string(spec) + `,"decoders":4,"files":[{"name":"a","size":5}]}`
	if err := fr.send(frameAssign, []byte(header)); err != nil {
		t.Fatal(err)
	}
	if err := fr.sendBlob(content); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := fr.recv()
	if err != nil || typ != frameResult {
		t.Fatalf("got frame 0x%02x %s, err %v; want a result", typ, payload, err)
	}
	var rh resultHeader
	if err := json.Unmarshal(payload, &rh); err != nil || rh.ID != 7 {
		t.Fatalf("result header %s: %v", payload, err)
	}
	var state []byte
	for typ != frameBlobEnd {
		if typ, payload, err = fr.recv(); err != nil {
			t.Fatal(err)
		}
		if typ == frameChunk {
			state = append(state, payload...)
		}
	}
	want, _ := stubState(spec, []io.Reader{bytes.NewReader(content)})
	if !bytes.Equal(state, want) {
		t.Fatalf("state %x, want %x", state, want)
	}
}

// playFrames writes the fuzzer's script as frames: each step is a type
// selector and a length, and the payload is that many bytes of filler.
// It stops at the first write error (the worker hung up).
func playFrames(fr *frameRW, script []byte) {
	types := []byte{frameChunk, frameChunk, frameBlobEnd, frameHeartbeat, frameAssign, frameResult, frameShutdown, 0x7f}
	for len(script) >= 2 {
		typ, n := types[int(script[0])%len(types)], int(script[1])*37
		script = script[2:]
		if fr.send(typ, make([]byte, n)) != nil {
			return
		}
	}
}

// FuzzWorkerAssignment feeds arbitrary frame sequences to a worker after
// a valid assign header: whatever arrives, the handler returns (so no
// runner, heartbeat or reader goroutine outlives it — runAssignment waits
// for each), nothing panics, no file buffers past its announced size,
// and only a file that arrived whole reads to a clean EOF.
func FuzzWorkerAssignment(f *testing.F) {
	chunk, end := byte(0), byte(2)
	f.Add(uint8(1), uint16(300), []byte{chunk, 4, chunk, 4, end, 0})             // the valid exchange
	f.Add(uint8(2), uint16(300), []byte{chunk, 4, end, 0, chunk, 8, end, 0})     // two files
	f.Add(uint8(2), uint16(300), []byte{chunk, 4, end, 0, chunk, 8})             // cut before the second blob-end
	f.Add(uint8(1), uint16(300), []byte{chunk, 4})                               // cut mid-blob
	f.Add(uint8(1), uint16(300), []byte{})                                       // cut after the header
	f.Add(uint8(1), uint16(100), []byte{chunk, 2, chunk, 2})                     // outgrows its announcement
	f.Add(uint8(1), uint16(300), []byte{chunk, 4, end, 0, chunk, 1})             // chunk after the last file
	f.Add(uint8(0), uint16(0), []byte{end, 0})                                   // blob-end with nothing announced
	f.Add(uint8(1), uint16(300), []byte{chunk, 4, 4, 0, end, 0})                 // assign inside a blob
	f.Add(uint8(1), uint16(300), []byte{chunk, 4, end, 0, 6, 0, chunk, 1, 7, 9}) // shutdown, then noise
	f.Fuzz(func(t *testing.T, nfiles uint8, size uint16, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		ah := assignHeader{ID: 1, Spec: json.RawMessage(`{}`), HeartbeatMS: 1}
		for i := 0; i < int(nfiles%4); i++ {
			ah.Files = append(ah.Files, fileMeta{Name: string(rune('a' + i)), Size: int64(size)})
		}

		// The whole connection handler, with a runner that reads.
		var running atomic.Int64
		w := &Worker{Stream: func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
			running.Add(1)
			defer running.Add(-1)
			for i, r := range files {
				n, err := io.Copy(io.Discard, r)
				if err != nil {
					return nil, err
				}
				if n > ah.Files[i].Size {
					t.Errorf("file %d read %d bytes to EOF, announced %d", i, n, ah.Files[i].Size)
				}
			}
			return []byte("state"), nil
		}}
		fr, conn, wait := assignmentPeer(t, w)
		if err := fr.sendJSON(frameAssign, ah); err != nil {
			t.Fatal(err)
		}
		playFrames(fr, script)
		conn.Close()
		wait()
		if n := running.Load(); n != 0 {
			t.Fatalf("%d runners outlived the connection handler", n)
		}

		// The receive loop alone, with nobody reading: everything it
		// accepts stays queued, so the queues show the bound directly.
		a, b := net.Pipe()
		files := make([]*pieceFile, len(ah.Files))
		for i, fm := range ah.Files {
			files[i] = newPieceFile(fm)
		}
		received := make(chan error, 1)
		go func() {
			err := recvFiles(newFrameRW(b), files)
			b.Close()
			received <- err
		}()
		playFrames(newFrameRW(a), script)
		a.Close()
		err := <-received
		for i, pf := range files {
			var queued int64
			for _, c := range pf.chunks {
				queued += int64(len(c))
			}
			if queued > pf.size {
				t.Fatalf("file %d holds %d bytes, announced %d", i, queued, pf.size)
			}
			if pf.err != io.EOF && (err == nil || pf.err != nil) {
				t.Fatalf("file %d ended with %v, receive error %v", i, pf.err, err)
			}
		}
	})
}

// BenchmarkDispatchLoopback is the layer number of the transport: eight
// 2 MiB pieces through two in-process workers on loopback, with a runner
// that only drains its readers, so what is timed is framing, queueing,
// supervision and the result exchange. -benchmem gives allocs/op.
func BenchmarkDispatchLoopback(b *testing.B) {
	const pieces, pieceSize = 8, 2 << 20
	dir := b.TempDir()
	tasks := make([]Task, pieces)
	content := bytes.Repeat([]byte("0123456789abcdef"), pieceSize/16)
	for i := range tasks {
		path := filepath.Join(dir, string(rune('a'+i)))
		if err := os.WriteFile(path, content, 0o600); err != nil {
			b.Fatal(err)
		}
		tasks[i] = Task{ID: i, Spec: json.RawMessage(`{}`), Files: []string{path}}
	}
	drain := func(ctx context.Context, spec []byte, files []io.Reader) ([]byte, error) {
		for _, r := range files {
			if _, err := io.Copy(io.Discard, r); err != nil {
				return nil, err
			}
		}
		return []byte("state"), nil
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		w := &Worker{Stream: drain}
		go w.Serve(lis)
		b.Cleanup(w.Drain)
		addrs = append(addrs, lis.Addr().String())
	}
	b.SetBytes(pieces * pieceSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, stats, err := Run(context.Background(), Config{Addrs: addrs}, tasks)
		if err != nil || len(results) != pieces || stats.Retries != 0 {
			b.Fatalf("run: %v, %d results, %+v", err, len(results), stats)
		}
	}
}
