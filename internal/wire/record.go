package wire

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/rpc"
)

// RFC 1831 §10 record marking over a live byte stream: the framing layer
// between TCP and RPC. The fragment rule and its bound are rpc's, shared
// with the offline rpc.RecordScanner.

// MaxRecordLen bounds a reassembled record: rpc.MaxRecordLen.
const MaxRecordLen = rpc.MaxRecordLen

// MaxReuse bounds a record buffer or encoder a connection keeps for the
// next record: one that grew past it for one huge record is dropped
// after its call, so that record does not pin memory for the
// connection's lifetime.
const MaxReuse = 1 << 20

// Recycle returns b emptied for the next record on its connection, or
// nil once b grew past MaxReuse.
func Recycle(b []byte) []byte {
	if cap(b) > MaxReuse {
		return nil
	}
	return b[:0]
}

// A BuffersWriter writes the concatenation of bufs, in order, as one
// write: on a socket, one writev. Package wire/sock makes a net.Conn
// one. Package wire does not import net itself, because that would
// link net (and its cgo resolver) into every program that only decodes
// packets.
type BuffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}

// RecordConn frames RPC messages over a byte stream using record
// marking. Reads and writes are independently safe to use from one
// goroutine each (the usual reader-loop/writer split); concurrent
// writers must serialize externally.
type RecordConn struct {
	r *bufio.Reader
	w *bufio.Writer
	// vec is the stream when it is a BuffersWriter: it takes each
	// record larger than w's buffer in one call.
	vec BuffersWriter
	// One header buffer per direction: the reader loop and the writer
	// run concurrently and must share nothing.
	rhdr, whdr [4]byte
	iov        [][]byte // header and parts of the record going to vec; the writer's
}

// NewRecordConn wraps a stream (typically a net.Conn) in record framing.
func NewRecordConn(rw io.ReadWriter) *RecordConn {
	vec, _ := rw.(BuffersWriter)
	return &RecordConn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw), vec: vec}
}

// WriteRecord sends msg as a single final fragment and flushes.
func (c *RecordConn) WriteRecord(msg []byte) error {
	return c.WriteRecordParts(msg)
}

// WriteRecordParts sends the concatenation of parts as a single final
// fragment and flushes — the bytes WriteRecord would put on the wire for
// the joined message, without the caller joining it first (an RPC
// header in front of a large payload, say).
//
// On a BuffersWriter, a record larger than the write buffer goes out as
// header + parts in one WriteBuffers call (one writev on a socket): no
// part is copied, and the peer does not wake up for part of a record.
// Any other record is copied through the write buffer.
func (c *RecordConn) WriteRecordParts(parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxRecordLen {
		return fmt.Errorf("wire: record of %d bytes exceeds limit", n)
	}
	hdr := rpc.AppendFragmentHeader(c.whdr[:0], n, true)
	if c.vec != nil && len(hdr)+n > c.w.Available() {
		if err := c.w.Flush(); err != nil {
			return err
		}
		c.iov = append(append(c.iov[:0], hdr), parts...)
		_, err := c.vec.WriteBuffers(c.iov)
		clear(c.iov) // keep no reference to the caller's parts
		return err
	}
	if _, err := c.w.Write(hdr); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := c.w.Write(p); err != nil {
			return err
		}
	}
	return c.w.Flush()
}

// ReadRecord reads one complete record, reassembling fragments. The
// returned slice is freshly allocated and owned by the caller; the
// first fragment — normally the only one — is read straight into it.
//
// A stream that ends exactly on a record boundary returns io.EOF. A
// stream cut anywhere inside a record — mid-header, mid-body, or
// between the fragments of a multi-fragment record — returns
// io.ErrUnexpectedEOF, so connection loss never reads as a clean end
// of stream with a silently dropped tail.
func (c *RecordConn) ReadRecord() ([]byte, error) {
	return c.ReadRecordInto(nil)
}

// ReadRecordInto is ReadRecord reading into buf's storage when the
// record fits its capacity, and into a fresh slice when it does not.
// The record is returned either way (nil on error, so a cut record
// leaves no stale bytes behind; non-nil when empty). A caller that
// reuses buf must be done with the previous record before the call.
func (c *RecordConn) ReadRecordInto(buf []byte) ([]byte, error) {
	msg := buf[:0]
	started := false
	for {
		if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
			if started && err == io.EOF {
				// Non-final fragments were consumed; the record is
				// truncated even though the header read saw no bytes.
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		started = true
		n, last, err := rpc.ParseFragmentHeader(c.rhdr[:], len(msg))
		if err != nil {
			return nil, err
		}
		off := len(msg)
		switch {
		case off+n <= cap(msg):
			msg = msg[:off+n]
		case off == 0:
			msg = make([]byte, n)
		default:
			msg = append(msg, make([]byte, n)...)
		}
		if _, err := io.ReadFull(c.r, msg[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if last {
			if msg == nil {
				msg = []byte{} // an empty record is a message, not an error
			}
			return msg, nil
		}
	}
}
