// Package xdr implements the External Data Representation standard
// (RFC 4506) as used by ONC RPC and NFS: big-endian 32/64-bit integers,
// variable and fixed-length opaque data with 4-byte padding, strings,
// booleans, and counted arrays.
//
// The Encoder appends to an internal buffer; the Decoder consumes a byte
// slice without copying. Both are deliberately simple — NFS packet
// decoding is the hot path of the sniffer, and all decoding works on
// sub-slices of a single packet buffer.
//
// Every byte decoder in this repository follows one error rule, which
// the Decoder implements: the first short read or rejected field is
// kept as a sticky error, every later read returns the zero value
// without advancing, and the caller checks Err once when the structure
// is read. The NFS, RPC and MOUNT codecs read through this Decoder;
// state.Decoder (serialized analysis state) and core's binary-trace
// cursor apply the same rule to their own formats.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a decode runs off the end of the input.
var ErrShortBuffer = errors.New("xdr: short buffer")

// ErrTooLong is returned when a counted item exceeds the decoder's
// sanity limit, which guards against corrupt or hostile length fields.
var ErrTooLong = errors.New("xdr: item exceeds maximum length")

// MaxItemLen bounds any single variable-length item (opaque, string,
// array count). NFS payloads never legitimately exceed this.
const MaxItemLen = 1 << 24

func pad(n int) int { return (4 - n%4) % 4 }

// Encoder serializes values in XDR format. The zero value is ready for
// use; Bytes returns the accumulated buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice is owned by the encoder
// and invalidated by further Put calls.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the encoder for reuse without releasing its buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint32 appends a big-endian 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutInt32 appends a big-endian 32-bit signed integer.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutUint64 appends a big-endian 64-bit unsigned integer (XDR hyper).
func (e *Encoder) PutUint64(v uint64) {
	e.PutUint32(uint32(v >> 32))
	e.PutUint32(uint32(v))
}

// PutBool appends an XDR boolean (uint32 0 or 1).
func (e *Encoder) PutBool(b bool) {
	if b {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFixedOpaque appends fixed-length opaque data padded to 4 bytes.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	for i := 0; i < pad(len(b)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// PutOpaque appends variable-length opaque data: a length word followed
// by the bytes padded to 4 bytes.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutString appends an XDR string (same wire form as variable opaque).
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	for i := 0; i < pad(len(s)); i++ {
		e.buf = append(e.buf, 0)
	}
}

// Decoder consumes XDR data from a byte slice with a sticky error. A
// read that fails records the first error (read it back with Err),
// moves the cursor to the end and returns the zero value; every later
// read then fails the same way, so a decoder reads a whole structure
// field by field and checks Err once at the end. Reads never panic and
// never advance past a failure.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder reading from b. The decoder aliases b;
// opaque and string results share its backing array.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first failure, or nil if every read so far succeeded.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's failure unless one is already
// recorded, and ends the input. Decoders call it for a field that reads
// fine but carries a value they reject.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.off = len(d.buf)
	}
}

// Remaining reports the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset reports the number of consumed bytes.
func (d *Decoder) Offset() int { return d.off }

// Uint32 decodes a big-endian 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if d.Remaining() < 4 {
		d.Fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 decodes a big-endian 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if d.Remaining() < 8 {
		d.Fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Bool decodes an XDR boolean. Any nonzero value is true, matching the
// liberal decoding used by real NFS implementations.
func (d *Decoder) Bool() bool { return d.Uint32() != 0 }

// FixedOpaque decodes n bytes of fixed-length opaque data plus padding.
// The returned slice aliases the decoder's buffer; it is nil after a
// failure.
func (d *Decoder) FixedOpaque(n int) []byte {
	if n < 0 || n > MaxItemLen {
		d.Fail(ErrTooLong)
		return nil
	}
	total := n + pad(n)
	if d.err != nil || d.Remaining() < total {
		d.Fail(ErrShortBuffer)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += total
	return b
}

// Opaque decodes variable-length opaque data. The returned slice aliases
// the decoder's buffer.
func (d *Decoder) Opaque() []byte { return d.FixedOpaque(int(d.Uint32())) }

// String decodes an XDR string as a Go string (copying the bytes).
func (d *Decoder) String() string { return string(d.Opaque()) }

// Count decodes an array count, validating it against MaxItemLen.
func (d *Decoder) Count() int {
	n := d.Uint32()
	if n > MaxItemLen {
		d.Fail(fmt.Errorf("%w: count %d", ErrTooLong, n))
		return 0
	}
	return int(n)
}
