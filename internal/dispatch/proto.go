// Package dispatch moves analysis work across machines: a coordinator
// connects to remote workers over TCP, streams each one piece
// assignments (the job spec plus the trace bytes themselves, so
// workers need no shared filesystem), and collects serialized
// internal/state blobs back — supervising the whole exchange with
// heartbeats, per-assignment deadlines, exponential backoff with
// jitter on retry, and speculative re-dispatch of stragglers. The
// framing layer is wire.RecordConn, the same RFC 1831 record marking
// the NFS serving stack speaks, so a truncated stream is always
// distinguishable from an orderly close.
//
// The protocol is deliberately small. Every frame is one record:
// a type byte followed by a payload — JSON for control frames, raw
// bytes for data chunks. One assignment flows as
//
//	coord → worker   assign {id, attempt, spec, files, deadline}
//	coord → worker   one blob per input file
//	worker → coord   heartbeat … heartbeat (from the runner's start on)
//	worker → coord   result {id, size} + state blob   (or error {id, msg})
//
// A blob is a sequence of chunk frames closed by a blob-end frame, so
// a connection cut mid-transfer surfaces immediately as a protocol
// error rather than a short file.
//
// The worker is a stream, not a spool. Its runner starts as soon as the
// assign header is in, and is handed one io.Reader
// per announced file; the connection's receive loop queues each chunk
// payload on the file it belongs to and the runner reads the queue, so
// transfer, decode and reduce overlap and no trace byte is reassembled
// or written to disk. The receive loop never waits for the runner — a
// two-file piece sends file 2 only after file 1, and a runner merging
// the two needs a record of each before it can consume either — so what
// bounds a worker's memory is what the header announced: a blob longer
// than its announced size, a chunk after the last announced file, or an
// announced size beyond maxBlobLen ends the assignment. A file's reader
// returns io.EOF only after that file's blob-end frame; a cut anywhere
// earlier makes every unfinished reader fail with io.ErrUnexpectedEOF,
// the runner's error is discarded with the connection, and no result
// frame is sent: a truncated piece cannot produce a state. The result
// is sent only after the last blob-end, so the coordinator never sees
// one while it is still sending.
//
// The coordinator sends a piece from its own goroutine and supervises
// the transfer with the same deadline and watchdog as the execution:
// while the piece is going out, only bytes the worker accepts count as
// liveness, so a worker that stops reading is abandoned after
// HeartbeatTimeout like one that stops heartbeating.
package dispatch

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
	"repro/internal/wire/sock"
)

// ProtocolVersion gates coordinator/worker compatibility: a worker
// whose hello carries a different version is rejected at registration.
// Version 1 sent a chained piece's resume state ahead of its files;
// version 2 sends the files only.
const ProtocolVersion = 2

// Frame types. Values are wire format; do not renumber.
const (
	frameHello     byte = 0x01 // worker→coord: JSON hello{}
	frameAssign    byte = 0x02 // coord→worker: JSON assignHeader{}
	frameChunk     byte = 0x03 // either direction: raw blob bytes
	frameBlobEnd   byte = 0x04 // either direction: closes the current blob
	frameHeartbeat byte = 0x05 // worker→coord: JSON heartbeat{}
	frameResult    byte = 0x06 // worker→coord: JSON resultHeader{}, then state blob
	frameError     byte = 0x07 // worker→coord: JSON errorMsg{}
	frameShutdown  byte = 0x08 // coord→worker: no more assignments on this conn
)

// chunkSize bounds one data frame. Records cap at wire.MaxRecordLen;
// smaller chunks keep heartbeats interleaving during large transfers.
const chunkSize = 256 << 10

// maxBlobLen bounds a reassembled blob (a trace piece or a state
// file), protecting both ends from a corrupt or hostile size header.
const maxBlobLen = 1 << 31

// hello registers a worker with the coordinator.
type hello struct {
	Version int    `json:"version"`
	Host    string `json:"host"`
	PID     int    `json:"pid"`
}

// fileMeta names one input blob of an assignment.
type fileMeta struct {
	// Name is the file's base name, which the worker's errors and logs
	// call it by; the ingest layer sniffs format from content.
	Name string `json:"name"`
	// Size is the most the blob may hold: the worker buffers what its
	// runner has not consumed yet, and rejects a blob that outgrows this.
	Size int64 `json:"size"`
}

// assignHeader announces one piece assignment; one blob per file
// follows immediately.
type assignHeader struct {
	ID      int             `json:"id"`
	Attempt int             `json:"attempt"`
	Spec    json.RawMessage `json:"spec"`
	Files   []fileMeta      `json:"files"`
	// DeadlineMS is the worker-side execution budget in milliseconds;
	// the coordinator enforces the same budget on its side, so a worker
	// that ignores it is cut off anyway.
	DeadlineMS int64 `json:"deadline_ms"`
	// HeartbeatMS is how often the worker must send heartbeats while
	// executing. The coordinator declares the worker dead after
	// missing several.
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// heartbeat is the worker's liveness beacon during an assignment.
type heartbeat struct {
	ID  int   `json:"id"`
	Ops int64 `json:"ops"` // progress indicator, advisory
}

// resultHeader announces a completed assignment; the state blob
// follows.
type resultHeader struct {
	ID   int   `json:"id"`
	Size int64 `json:"size"`
}

// errorMsg reports a failed assignment without killing the connection.
type errorMsg struct {
	ID  int    `json:"id"`
	Msg string `json:"msg"`
}

// frameRW sends and receives typed frames over record framing. Reads
// belong to one goroutine; writes are mutex-serialized so heartbeats
// can interleave with result chunks.
type frameRW struct {
	rc  *wire.RecordConn
	wmu sync.Mutex
	tag [1]byte // the type byte of the frame being written; under wmu
	// written counts the bytes of completed frame writes: what the peer
	// has accepted, which is how a sender's supervisor sees progress.
	written atomic.Int64
}

func newFrameRW(conn net.Conn) *frameRW {
	return &frameRW{rc: sock.NewRecordConn(conn)}
}

// send writes one frame: type byte + payload, the payload uncopied.
func (f *frameRW) send(t byte, payload []byte) error {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.tag[0] = t
	err := f.rc.WriteRecordParts(f.tag[:], payload)
	if err == nil {
		f.written.Add(int64(1 + len(payload)))
	}
	return err
}

// sendJSON marshals v as the payload of a t frame.
func (f *frameRW) sendJSON(t byte, v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return f.send(t, b)
}

// recv reads one frame. io.EOF means the peer closed between frames;
// any truncation inside a frame is io.ErrUnexpectedEOF from the
// record layer.
func (f *frameRW) recv() (byte, []byte, error) {
	rec, err := f.rc.ReadRecord()
	if err != nil {
		return 0, nil, err
	}
	if len(rec) == 0 {
		return 0, nil, fmt.Errorf("dispatch: empty frame")
	}
	return rec[0], rec[1:], nil
}

// sendBlob streams data as chunk frames closed by a blob-end frame.
func (f *frameRW) sendBlob(data []byte) error {
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		if err := f.send(frameChunk, data[off:end]); err != nil {
			return err
		}
	}
	return f.send(frameBlobEnd, nil)
}
