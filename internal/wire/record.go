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

// RecordConn frames RPC messages over a byte stream using record
// marking. Reads and writes are independently safe to use from one
// goroutine each (the usual reader-loop/writer split); concurrent
// writers must serialize externally.
type RecordConn struct {
	r *bufio.Reader
	w *bufio.Writer
	// One header buffer per direction: the reader loop and the writer
	// run concurrently and must share nothing.
	rhdr, whdr [4]byte
}

// NewRecordConn wraps a stream (typically a net.Conn) in record framing.
func NewRecordConn(rw io.ReadWriter) *RecordConn {
	return &RecordConn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// WriteRecord sends msg as a single final fragment and flushes.
func (c *RecordConn) WriteRecord(msg []byte) error {
	return c.WriteRecordParts(msg)
}

// WriteRecordParts sends the concatenation of parts as a single final
// fragment and flushes — the bytes WriteRecord would put on the wire for
// the joined message, without the caller joining it first (a one-byte
// tag in front of a large payload, say).
func (c *RecordConn) WriteRecordParts(parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > MaxRecordLen {
		return fmt.Errorf("wire: record of %d bytes exceeds limit", n)
	}
	if _, err := c.w.Write(rpc.AppendFragmentHeader(c.whdr[:0], n, true)); err != nil {
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
	var msg []byte
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
		if off == 0 {
			msg = make([]byte, n)
		} else {
			msg = append(msg, make([]byte, n)...)
		}
		if _, err := io.ReadFull(c.r, msg[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if last {
			return msg, nil
		}
	}
}
