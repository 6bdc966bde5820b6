package core

// Binary trace format: a compact varint encoding for long-term trace
// storage. A week of CAMPUS records in the text format runs to
// gigabytes at production scale; the binary form is roughly 4× smaller
// and parses an order of magnitude faster. The original nfsdump tools
// grew an equivalent format for the same reason.
//
// Layout: an 8-byte magic+version header, then one length-prefixed
// record after another. Within a record, a presence bitmap selects
// which optional fields follow; all integers are unsigned varints
// (zigzag for the time delta), and times are microseconds relative to
// the previous record, which makes the common case (a few hundred µs)
// one or two bytes.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// binaryMagic identifies the format ("NFSTRC" + version 1).
var binaryMagic = [8]byte{'N', 'F', 'S', 'T', 'R', 'C', 0, 1}

// ErrBadTraceMagic reports a stream that is not a binary trace.
var ErrBadTraceMagic = errors.New("core: not a binary trace file")

// maxBinaryRecord caps one encoded record; anything larger is a
// corrupt length prefix, not a record.
const maxBinaryRecord = 1 << 20

// Field presence bits.
const (
	bfFH uint32 = 1 << iota
	bfName
	bfFH2
	bfName2
	bfOffset
	bfCount
	bfStable
	bfSetSize
	bfStatus
	bfRCount
	bfSize
	bfFileID
	bfMtime
	bfPreSize
	bfNewFH
	bfEOF
	bfUIDGID
)

// BinaryWriter streams records in the binary format.
type BinaryWriter struct {
	w        *bufio.Writer
	buf      []byte
	lastUsec int64
	n        int64
	wroteHdr bool
}

// NewBinaryWriter wraps w; the header is written on the first record.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

func (bw *BinaryWriter) varint(v uint64) {
	bw.buf = binary.AppendUvarint(bw.buf, v)
}

func (bw *BinaryWriter) str(s string) {
	bw.varint(uint64(len(s)))
	bw.buf = append(bw.buf, s...)
}

// Write emits one record.
func (bw *BinaryWriter) Write(r *Record) error {
	if !bw.wroteHdr {
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.wroteHdr = true
	}
	bw.buf = bw.buf[:0]

	var bits uint32
	if r.FH != 0 {
		bits |= bfFH
	}
	if r.Name != "" {
		bits |= bfName
	}
	if r.FH2 != 0 {
		bits |= bfFH2
	}
	if r.Name2 != "" {
		bits |= bfName2
	}
	if r.Offset != 0 {
		bits |= bfOffset
	}
	if r.Count != 0 {
		bits |= bfCount
	}
	if r.Stable != 0 {
		bits |= bfStable
	}
	if r.HasSet {
		bits |= bfSetSize
	}
	if r.Status != 0 {
		bits |= bfStatus
	}
	if r.RCount != 0 {
		bits |= bfRCount
	}
	if r.Size != 0 {
		bits |= bfSize
	}
	if r.FileID != 0 {
		bits |= bfFileID
	}
	if r.Mtime != 0 {
		bits |= bfMtime
	}
	if r.HasPre {
		bits |= bfPreSize
	}
	if r.NewFH != 0 {
		bits |= bfNewFH
	}
	if r.EOF {
		bits |= bfEOF
	}
	if r.UID != 0 || r.GID != 0 {
		bits |= bfUIDGID
	}

	usec := int64(math.Round(r.Time * 1e6))
	delta := usec - bw.lastUsec
	bw.lastUsec = usec

	bw.varint(uint64(bits))
	// Zigzag the time delta (reordered captures can step backwards).
	bw.varint(uint64((delta << 1) ^ (delta >> 63)))
	bw.buf = append(bw.buf, r.Kind, r.Proto)
	bw.varint(uint64(r.Client))
	bw.varint(uint64(r.Port))
	bw.varint(uint64(r.Server))
	bw.varint(uint64(r.XID))
	bw.varint(uint64(r.Version))
	bw.str(r.Proc.String())

	if bits&bfFH != 0 {
		bw.str(r.FH.String())
	}
	if bits&bfName != 0 {
		bw.str(r.Name)
	}
	if bits&bfFH2 != 0 {
		bw.str(r.FH2.String())
	}
	if bits&bfName2 != 0 {
		bw.str(r.Name2)
	}
	if bits&bfOffset != 0 {
		bw.varint(r.Offset)
	}
	if bits&bfCount != 0 {
		bw.varint(uint64(r.Count))
	}
	if bits&bfStable != 0 {
		bw.varint(uint64(r.Stable))
	}
	if bits&bfSetSize != 0 {
		bw.varint(r.SetSize)
	}
	if bits&bfStatus != 0 {
		bw.varint(uint64(r.Status))
	}
	if bits&bfRCount != 0 {
		bw.varint(uint64(r.RCount))
	}
	if bits&bfSize != 0 {
		bw.varint(r.Size)
	}
	if bits&bfFileID != 0 {
		bw.varint(r.FileID)
	}
	if bits&bfMtime != 0 {
		bw.varint(uint64(math.Round(r.Mtime * 1e6)))
	}
	if bits&bfPreSize != 0 {
		bw.varint(r.PreSize)
	}
	if bits&bfNewFH != 0 {
		bw.str(r.NewFH.String())
	}
	if bits&bfUIDGID != 0 {
		bw.varint(uint64(r.UID))
		bw.varint(uint64(r.GID))
	}

	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(bw.buf)))
	if _, err := bw.w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := bw.w.Write(bw.buf); err != nil {
		return err
	}
	bw.n++
	return nil
}

// Count reports records written.
func (bw *BinaryWriter) Count() int64 { return bw.n }

// Flush drains buffered output.
func (bw *BinaryWriter) Flush() error {
	if !bw.wroteHdr {
		// An empty trace still gets a header.
		if _, err := bw.w.Write(binaryMagic[:]); err != nil {
			return err
		}
		bw.wroteHdr = true
	}
	return bw.w.Flush()
}

// BinaryReader streams records from the binary format.
type BinaryReader struct {
	r        *bufio.Reader
	lastUsec int64
	readHdr  bool
	buf      []byte
}

// NewBinaryReader wraps r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next record or io.EOF.
func (br *BinaryReader) Next() (*Record, error) {
	if !br.readHdr {
		var hdr [8]byte
		if _, err := io.ReadFull(br.r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return nil, ErrBadTraceMagic
			}
			return nil, err
		}
		if hdr != binaryMagic {
			return nil, ErrBadTraceMagic
		}
		br.readHdr = true
	}
	recLen, err := binary.ReadUvarint(br.r)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			// A partial varint is a truncated trace, not a clean end:
			// surfacing it (rather than a silent EOF) is what lets a
			// damaged archive be noticed instead of under-counted.
			return nil, fmt.Errorf("core: truncated binary record length: %w", err)
		}
		return nil, err
	}
	if recLen > maxBinaryRecord {
		return nil, fmt.Errorf("core: implausible binary record of %d bytes", recLen)
	}
	if cap(br.buf) < int(recLen) {
		br.buf = make([]byte, recLen)
	}
	br.buf = br.buf[:recLen]
	if _, err := io.ReadFull(br.r, br.buf); err != nil {
		return nil, fmt.Errorf("core: truncated binary record: %w", err)
	}
	r := NewRecord()
	if err := decodeRecord(br.buf, &br.lastUsec, r); err != nil {
		FreeRecord(r)
		return nil, err
	}
	return r, nil
}

// Recycle implements RecordRecycler: records from Next come from the
// shared pool.
func (br *BinaryReader) Recycle(r *Record) { FreeRecord(r) }

// byteCursor reads a record payload under the error rule xdr.Decoder
// follows: the first failure is kept in err and ends the input, so every
// later read returns the zero value, and a decode checks err once.
type byteCursor struct {
	b   []byte
	off int
	err error
}

var (
	errBadVarint     = errors.New("core: bad varint in binary record")
	errStringOverrun = errors.New("core: string overruns binary record")
	errRecordShort   = errors.New("core: binary record too short")
)

func (c *byteCursor) fail(err error) {
	if c.err == nil {
		c.err = err
		c.off = len(c.b)
	}
}

func (c *byteCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail(errBadVarint)
		return 0
	}
	c.off += n
	return v
}

func (c *byteCursor) str() string { return string(c.strBytes()) }

// strBytes returns a view of the next length-prefixed string; the view
// aliases the record buffer and must not be retained.
func (c *byteCursor) strBytes() []byte {
	n := c.uvarint()
	if n > uint64(len(c.b)-c.off) {
		c.fail(errStringOverrun)
	}
	if c.err != nil {
		return nil
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// fh interns the next length-prefixed handle spelling in place. Nothing
// is interned once the record has failed.
func (c *byteCursor) fh() FH {
	b := c.strBytes()
	if c.err != nil {
		return 0
	}
	return InternFHBytes(b)
}

func (c *byteCursor) byte() byte {
	if c.off >= len(c.b) {
		c.fail(errRecordShort)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// decodeRecord decodes one record payload into r (which is
// overwritten; pass a zeroed or pooled Record). lastUsec carries the
// absolute time of the previous record (the format stores deltas) and
// is advanced to this record's time.
func decodeRecord(buf []byte, lastUsec *int64, r *Record) error {
	c := &byteCursor{b: buf}
	bits := uint32(c.uvarint())
	zz := c.uvarint()
	*lastUsec += int64(zz>>1) ^ -int64(zz&1)

	r.Time = float64(*lastUsec) / 1e6
	r.Kind = c.byte()
	r.Proto = c.byte()
	r.Client = uint32(c.uvarint())
	r.Port = uint16(c.uvarint())
	r.Server = uint32(c.uvarint())
	r.XID = uint32(c.uvarint())
	r.Version = uint32(c.uvarint())
	// Interning is deferred to the end of the decode so a record whose
	// later fields are corrupt does not register a garbage name in the
	// bounded process-global proc table.
	procB := c.strBytes()

	if bits&bfFH != 0 {
		r.FH = c.fh()
	}
	if bits&bfName != 0 {
		r.Name = c.str()
	}
	if bits&bfFH2 != 0 {
		r.FH2 = c.fh()
	}
	if bits&bfName2 != 0 {
		r.Name2 = c.str()
	}
	if bits&bfOffset != 0 {
		r.Offset = c.uvarint()
	}
	if bits&bfCount != 0 {
		r.Count = uint32(c.uvarint())
	}
	if bits&bfStable != 0 {
		r.Stable = uint32(c.uvarint())
	}
	if bits&bfSetSize != 0 {
		r.SetSize = c.uvarint()
		r.HasSet = true
	}
	if bits&bfStatus != 0 {
		r.Status = uint32(c.uvarint())
	}
	if bits&bfRCount != 0 {
		r.RCount = uint32(c.uvarint())
	}
	if bits&bfSize != 0 {
		r.Size = c.uvarint()
	}
	if bits&bfFileID != 0 {
		r.FileID = c.uvarint()
	}
	if bits&bfMtime != 0 {
		r.Mtime = float64(c.uvarint()) / 1e6
	}
	if bits&bfPreSize != 0 {
		r.PreSize = c.uvarint()
		r.HasPre = true
	}
	if bits&bfNewFH != 0 {
		r.NewFH = c.fh()
	}
	r.EOF = bits&bfEOF != 0
	if bits&bfUIDGID != 0 {
		r.UID = uint32(c.uvarint())
		r.GID = uint32(c.uvarint())
	}
	if c.err != nil {
		return c.err
	}
	var err error
	r.Proc, err = InternProcBytes(procB)
	return err
}
