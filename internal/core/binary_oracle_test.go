package core

// The binary reader as it was before records were decoded in place,
// kept (identifiers renamed) as the reference BinaryReader is held to:
// it reads each body into a buffer of its own, decodes varints with
// binary.Uvarint alone and interns every handle in the process-wide
// table. Its one edit is the refusal of a bad kind and of values wider
// than their field. FuzzBinaryReaderOracle and the tests below require
// the same records and the same error at the same record from both.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// oracleInputs are the ways BinaryOracleDiff hands a stream to both
// readers: whole, or as a live feed would, a byte or half a read at a
// time, with the end reported along with the last bytes, or with a
// timeout on the second read.
var oracleInputs = []func(io.Reader) io.Reader{
	func(r io.Reader) io.Reader { return r },
	iotest.OneByteReader,
	iotest.HalfReader,
	iotest.DataErrReader,
	iotest.TimeoutReader,
}

// BinaryOracleInputs is the number of oracleInputs.
var BinaryOracleInputs = len(oracleInputs)

// BinaryOracleDiff reads data with NewBinaryReader and with the oracle,
// each through oracleInputs[input%len(oracleInputs)]. It describes the
// first difference — the error strings, or the records with handles
// compared by spelling — and returns "" when there is none.
func BinaryOracleDiff(data []byte, input int) string {
	in := oracleInputs[input%len(oracleInputs)]
	got := NewBinaryReader(in(bytes.NewReader(data)))
	want := &oracleBinaryReader{r: bufio.NewReaderSize(in(bytes.NewReader(data)), 1<<16)}
	for i := 0; ; i++ {
		g, gErr := got.Next()
		w, wErr := want.Next()
		if fmt.Sprint(gErr) != fmt.Sprint(wErr) {
			return fmt.Sprintf("input %d, record %d: error %v, oracle %v", input, i, gErr, wErr)
		}
		if gErr != nil {
			return ""
		}
		gs := [3]string{g.FH.String(), g.FH2.String(), g.NewFH.String()}
		ws := [3]string{w.FH.String(), w.FH2.String(), w.NewFH.String()}
		gv, wv := *g, *w
		gv.FH, gv.FH2, gv.NewFH = 0, 0, 0
		wv.FH, wv.FH2, wv.NewFH = 0, 0, 0
		if gs != ws || gv != wv {
			return fmt.Sprintf("input %d, record %d:\n got %+v %q\nwant %+v %q", input, i, gv, gs, wv, ws)
		}
	}
}

// FuzzBinaryReaderOracle is the differential target of the binary
// reader: on any bytes, handed over in any of oracleInputs' ways, it
// must return what the oracle returns.
func FuzzBinaryReaderOracle(f *testing.F) {
	for _, seed := range binaryFuzzSeeds() {
		for input := range oracleInputs {
			f.Add(seed, uint8(input))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, input uint8) {
		if diff := BinaryOracleDiff(data, int(input)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// oracleBinaryReader streams records from the binary format.
type oracleBinaryReader struct {
	r        *bufio.Reader
	lastUsec int64
	readHdr  bool
	buf      []byte
	stock    RecordStock
}

// Next returns the next record or io.EOF.
func (br *oracleBinaryReader) Next() (*Record, error) {
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
	r := br.stock.Next()
	if err := oracleDecodeRecord(br.buf, &br.lastUsec, r); err != nil {
		return nil, err
	}
	return r, nil
}

// oracleCursor reads a record payload under the error rule xdr.Decoder
// follows: the first failure is kept in err and ends the input, so every
// later read returns the zero value, and a decode checks err once.
type oracleCursor struct {
	b   []byte
	off int
	err error
}

func (c *oracleCursor) fail(err error) {
	if c.err == nil {
		c.err = err
		c.off = len(c.b)
	}
}

func (c *oracleCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail(errBadVarint)
		return 0
	}
	c.off += n
	return v
}

// u32 is the refusal of a value wider than its 32-bit field.
func (c *oracleCursor) u32(field string) uint32 {
	v := c.uvarint()
	if v > math.MaxUint32 {
		c.fail(errBadField(field, v))
	}
	return uint32(v)
}

func (c *oracleCursor) str() string { return string(c.strBytes()) }

// strBytes returns a view of the next length-prefixed string; the view
// aliases the record buffer and must not be retained.
func (c *oracleCursor) strBytes() []byte {
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
func (c *oracleCursor) fh() FH {
	b := c.strBytes()
	if c.err != nil {
		return 0
	}
	return InternFHBytes(b)
}

func (c *oracleCursor) byte() byte {
	if c.off >= len(c.b) {
		c.fail(errRecordShort)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

// oracleDecodeRecord decodes one record payload into r (which is
// overwritten; pass a zeroed or recycled Record). lastUsec carries the
// absolute time of the previous record (the format stores deltas) and
// is advanced to this record's time.
func oracleDecodeRecord(buf []byte, lastUsec *int64, r *Record) error {
	c := &oracleCursor{b: buf}
	bits := uint32(c.uvarint())
	zz := c.uvarint()
	*lastUsec += int64(zz>>1) ^ -int64(zz&1)

	r.Time = float64(*lastUsec) / 1e6
	r.Kind = c.byte()
	if c.err == nil && r.Kind != KindCall && r.Kind != KindReply {
		c.fail(errBadKind(r.Kind))
	}
	r.Proto = c.byte()
	r.Client = c.u32("client")
	port := c.uvarint()
	if port > math.MaxUint16 {
		c.fail(errBadField("port", port))
	}
	r.Port = uint16(port)
	r.Server = c.u32("server")
	r.XID = c.u32("xid")
	r.Version = c.u32("version")
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
		r.Count = c.u32("count")
	}
	if bits&bfStable != 0 {
		r.Stable = c.u32("stable")
	}
	if bits&bfSetSize != 0 {
		r.SetSize = c.uvarint()
		r.HasSet = true
	}
	if bits&bfStatus != 0 {
		r.Status = c.u32("status")
	}
	if bits&bfRCount != 0 {
		r.RCount = c.u32("rcount")
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
		r.UID = c.u32("uid")
		r.GID = c.u32("gid")
	}
	if c.err != nil {
		return c.err
	}
	var err error
	r.Proc, err = InternProcBytes(procB)
	return err
}
