package core

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// TailReader follows a growing text-format trace file, the way a
// monitoring daemon watches the file a tracer is appending to. Next
// blocks (polling) at end of file until more records arrive, survives
// rotation (the path being renamed away and recreated, or truncated in
// place), and never yields a half-written record: bytes are buffered
// until a terminating newline is seen.
//
// Rotation is only considered once the current file is drained to EOF,
// so records written before the rotation are never skipped. A trailing
// fragment with no newline at a rotation boundary is a record the
// writer abandoned mid-line; it is discarded and counted in Discarded.
//
// Stop ends the tail: Next drains everything already in the file and
// then returns io.EOF, which lets a downstream Joiner run its normal
// end-of-stream drain. Only the text format is supported — the binary
// format's length-prefixed framing does not self-synchronize at a
// truncated tail, and compressed files cannot grow.
type TailReader struct {
	path string
	f    *os.File
	fi   os.FileInfo
	off  int64 // bytes consumed from the current file

	buf  []byte // unconsumed file bytes; [pos:] is not yet parsed
	pos  int
	rbuf []byte

	poll      time.Duration
	stop      chan struct{}
	stopOnce  sync.Once
	line      int64
	records   int64
	discarded int64
	rotations int64

	stock RecordStock
	spent RecycleBatch
}

// DefaultTailPoll is the end-of-file poll interval when none is given.
const DefaultTailPoll = 50 * time.Millisecond

// NewTailReader opens path for tailing. poll is the end-of-file poll
// interval; <= 0 selects DefaultTailPoll.
func NewTailReader(path string, poll time.Duration) (*TailReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if poll <= 0 {
		poll = DefaultTailPoll
	}
	return &TailReader{
		path: path,
		f:    f,
		fi:   fi,
		rbuf: make([]byte, 64*1024),
		poll: poll,
		stop: make(chan struct{}),
	}, nil
}

// Stop ends the tail: the reader drains what is already on disk and
// then reports io.EOF. Safe to call from any goroutine, repeatedly.
func (t *TailReader) Stop() { t.stopOnce.Do(func() { close(t.stop) }) }

// Close releases the file. Call after Next has returned io.EOF.
func (t *TailReader) Close() error { return t.f.Close() }

// Records reports the number of records yielded so far.
func (t *TailReader) Records() int64 { return t.records }

// Discarded reports unparseable fragments dropped at rotation
// boundaries (a writer died mid-line).
func (t *TailReader) Discarded() int64 { return t.discarded }

// Rotations reports how many times the path was reopened.
func (t *TailReader) Rotations() int64 { return t.rotations }

// Recycle implements RecordRecycler.
func (t *TailReader) Recycle(r *Record) { t.spent.Recycle(r) }

// Next returns the next record, blocking at end of file until the file
// grows, rotates, or Stop is called (then io.EOF after the drain).
func (t *TailReader) Next() (*Record, error) {
	// stopped is observed per pass: after Stop fires, one more fill
	// must still run so a burst written just before the stop drains.
	stopped := false
	for {
		if line, ok := t.nextLine(); ok {
			rec, err := t.parse(line)
			if rec == nil && err == nil {
				continue // blank or comment
			}
			return rec, err
		}
		if len(t.buf)-t.pos > maxLineBytes {
			return nil, fmt.Errorf("tail %s: line %d exceeds %d bytes", t.path, t.line+1, maxLineBytes)
		}
		n, err := t.fill()
		if n > 0 {
			continue
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		// Drained the current file. A different file at the path means
		// rotation: switch to it and keep reading from its start.
		if t.maybeRotate() {
			continue
		}
		if stopped {
			// Truly drained and stopping. A trailing newline-less
			// fragment is accepted like bufio.Scanner accepts a final
			// unterminated token.
			if t.pos < len(t.buf) {
				line := t.buf[t.pos:]
				t.pos = len(t.buf)
				rec, err := t.parse(line)
				if rec == nil && err == nil {
					continue
				}
				return rec, err
			}
			return nil, io.EOF
		}
		select {
		case <-t.stop:
			stopped = true
		case <-time.After(t.poll):
		}
	}
}

// nextLine returns the next newline-terminated line, without the
// newline, advancing the cursor.
func (t *TailReader) nextLine() ([]byte, bool) {
	for i := t.pos; i < len(t.buf); i++ {
		if t.buf[i] == '\n' {
			line := t.buf[t.pos:i]
			t.pos = i + 1
			return line, true
		}
	}
	return nil, false
}

// parse turns one line into a record; blank lines and '#' comments
// yield (nil, nil).
func (t *TailReader) parse(line []byte) (*Record, error) {
	t.line++
	line = trimSpaceBytes(line)
	if len(line) == 0 || line[0] == '#' {
		return nil, nil
	}
	r := t.stock.Next()
	if err := UnmarshalRecordBytes(line, r); err != nil {
		return nil, fmt.Errorf("tail %s: line %d: %w", t.path, t.line, err)
	}
	t.records++
	return r, nil
}

// fill reads more bytes from the current file, compacting the buffer
// first so memory stays bounded by one line plus one read.
func (t *TailReader) fill() (int, error) {
	if t.pos == len(t.buf) {
		t.buf = t.buf[:0]
		t.pos = 0
	} else if t.pos > 0 {
		n := copy(t.buf, t.buf[t.pos:])
		t.buf = t.buf[:n]
		t.pos = 0
	}
	n, err := t.f.Read(t.rbuf)
	if n > 0 {
		t.buf = append(t.buf, t.rbuf[:n]...)
		t.off += int64(n)
	}
	return n, err
}

// maybeRotate checks, at EOF of the current file, whether the path now
// names a different file (rename rotation) or was truncated in place,
// and reopens it if so. It reports whether a switch happened. A stat or
// open failure (the path briefly absent mid-rotation) just means "poll
// again".
func (t *TailReader) maybeRotate() bool {
	st, err := os.Stat(t.path)
	if err != nil {
		return false
	}
	if os.SameFile(t.fi, st) {
		if st.Size() >= t.off {
			return false
		}
		// Truncated in place: re-read from the top.
	}
	f, err := os.Open(t.path)
	if err != nil {
		return false
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return false
	}
	t.f.Close()
	t.f, t.fi, t.off = f, fi, 0
	t.rotations++
	// A fragment held from the old file can never complete.
	if t.pos < len(t.buf) {
		t.discarded++
		t.buf = t.buf[:0]
		t.pos = 0
	}
	return true
}

// trimSpaceBytes trims ASCII whitespace without allocating; trace lines
// are ASCII by construction.
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
