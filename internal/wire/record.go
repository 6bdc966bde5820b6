package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// RFC 1831 §10 record marking: each RPC message sent over a byte stream
// is carried as one or more fragments, each prefixed by a 4-byte header
// whose top bit marks the final fragment and whose low 31 bits give the
// fragment length. This is the framing layer between TCP and RPC — the
// live transport twin of the offline record scanner in internal/rpc.

// MaxRecordLen bounds a reassembled record (and any single fragment),
// protecting the receiver from hostile or corrupt length prefixes.
const MaxRecordLen = 1 << 24

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
	binary.BigEndian.PutUint32(c.whdr[:], uint32(n)|0x80000000)
	if _, err := c.w.Write(c.whdr[:]); err != nil {
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
		hdr := binary.BigEndian.Uint32(c.rhdr[:])
		last := hdr&0x80000000 != 0
		n := int(hdr & 0x7FFFFFFF)
		if n > MaxRecordLen || len(msg)+n > MaxRecordLen {
			return nil, fmt.Errorf("wire: record fragment of %d bytes exceeds limit", n)
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
