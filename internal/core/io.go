package core

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// Writer streams trace records to an io.Writer in the text format.
type Writer struct {
	w   *bufio.Writer
	buf []byte // reused AppendMarshal scratch; no per-record allocation
	n   int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one record.
func (tw *Writer) Write(r *Record) error {
	tw.buf = r.AppendMarshal(tw.buf[:0])
	tw.buf = append(tw.buf, '\n')
	if _, err := tw.w.Write(tw.buf); err != nil {
		return err
	}
	tw.n++
	return nil
}

// Count reports records written.
func (tw *Writer) Count() int64 { return tw.n }

// Flush drains buffered output.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader streams trace records from an io.Reader, skipping blank lines
// and '#' comments.
type Reader struct {
	s    *bufio.Scanner
	line int64
}

// NewReader wraps r. Lines up to 1 MB are supported (anonymized names
// are bounded, but raw traces may carry long paths).
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{s: s}
}

// Next returns the next record, or io.EOF. Records come from the
// shared pool; a consumer that drops one may hand it back via Recycle.
func (tr *Reader) Next() (*Record, error) {
	for tr.s.Scan() {
		tr.line++
		line := bytes.TrimSpace(tr.s.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		r := NewRecord()
		if err := UnmarshalRecordBytes(line, r); err != nil {
			FreeRecord(r)
			return nil, fmt.Errorf("line %d: %w", tr.line, err)
		}
		return r, nil
	}
	if err := tr.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Recycle implements RecordRecycler: records from Next come from the
// shared pool.
func (tr *Reader) Recycle(r *Record) { FreeRecord(r) }

// WriteAll writes every record to w.
func WriteAll(w io.Writer, records []*Record) error {
	tw := NewWriter(w)
	for _, r := range records {
		if err := tw.Write(r); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// sniffReader wraps r for ingest: gzip-compressed input (archived
// trace sets are stored compressed) is decompressed transparently, and
// the leading bytes of the resulting stream are peeked to classify it
// as the binary format (the NFSTRC magic) or text.
func sniffReader(r io.Reader) (br *bufio.Reader, binaryFormat bool, err error) {
	br = bufio.NewReaderSize(r, 1<<16)
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, false, err
		}
		br = bufio.NewReaderSize(zr, 1<<16)
	}
	head, err := br.Peek(8)
	if err != nil && len(head) < 8 {
		// Tiny input: let the text reader produce EOF or errors.
		return br, false, nil
	}
	return br, [8]byte(head) == binaryMagic, nil
}

// DetectSource wraps r in the appropriate reader by sniffing the
// leading bytes: gzip input is decompressed transparently, binary
// traces start with the NFSTRC magic, anything else is treated as the
// text format.
func DetectSource(r io.Reader) (RecordSource, error) {
	br, binaryFormat, err := sniffReader(r)
	if err != nil {
		return nil, err
	}
	if binaryFormat {
		return NewBinaryReader(br), nil
	}
	return NewReader(br), nil
}

// RecordWriter is the writing side shared by the text and binary
// formats.
type RecordWriter interface {
	Write(*Record) error
	Flush() error
}

// NewFormatWriter returns a text or binary writer.
func NewFormatWriter(w io.Writer, binaryFormat bool) RecordWriter {
	if binaryFormat {
		return NewBinaryWriter(w)
	}
	return NewWriter(w)
}
