package xdr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		e := NewEncoder(8)
		e.PutUint32(v)
		d := NewDecoder(e.Bytes())
		got := d.Uint32()
		return d.Err() == nil && got == v && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder(8)
		e.PutUint64(v)
		d := NewDecoder(e.Bytes())
		got := d.Uint64()
		return d.Err() == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBigEndianLayout(t *testing.T) {
	e := NewEncoder(4)
	e.PutUint32(0x01020304)
	if !bytes.Equal(e.Bytes(), []byte{1, 2, 3, 4}) {
		t.Fatalf("layout = %x, want 01020304", e.Bytes())
	}
	e.Reset()
	e.PutInt32(-2)
	if !bytes.Equal(e.Bytes(), []byte{0xFF, 0xFF, 0xFF, 0xFE}) {
		t.Fatalf("PutInt32(-2) = %x, want fffffffe", e.Bytes())
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		data := bytes.Repeat([]byte{0xAB}, n)
		e := NewEncoder(16)
		e.PutOpaque(data)
		if e.Len()%4 != 0 {
			t.Errorf("len(%d): encoded length %d not a multiple of 4", n, e.Len())
		}
		want := 4 + n + (4-n%4)%4
		if e.Len() != want {
			t.Errorf("len(%d): encoded %d bytes, want %d", n, e.Len(), want)
		}
		d := NewDecoder(e.Bytes())
		got := d.Opaque()
		if err := d.Err(); err != nil {
			t.Fatalf("len(%d): decode: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("len(%d): got %x want %x", n, got, data)
		}
		if d.Remaining() != 0 {
			t.Errorf("len(%d): %d bytes left over", n, d.Remaining())
		}
	}
}

func TestOpaqueRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		e := NewEncoder(len(data) + 8)
		e.PutOpaque(data)
		d := NewDecoder(e.Bytes())
		got := d.Opaque()
		return d.Err() == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		e := NewEncoder(len(s) + 8)
		e.PutString(s)
		d := NewDecoder(e.Bytes())
		got := d.String()
		return d.Err() == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBool(t *testing.T) {
	e := NewEncoder(8)
	e.PutBool(true)
	e.PutBool(false)
	d := NewDecoder(e.Bytes())
	b1, b2 := d.Bool(), d.Bool()
	if d.Err() != nil || !b1 || b2 {
		t.Fatalf("bool round trip: %v %v %v", b1, b2, d.Err())
	}
}

func TestShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if v := d.Uint32(); v != 0 || d.Err() != ErrShortBuffer {
		t.Errorf("Uint32 on short buffer: %d, %v", v, d.Err())
	}
	d = NewDecoder([]byte{0, 0, 0, 8, 1, 2}) // claims 8 bytes, has 2
	if b := d.Opaque(); b != nil || d.Err() != ErrShortBuffer {
		t.Errorf("Opaque on short buffer: %x, %v", b, d.Err())
	}
	d = NewDecoder([]byte{0, 0, 0, 1})
	if v := d.Uint64(); v != 0 || d.Err() != ErrShortBuffer {
		t.Errorf("Uint64 on short buffer: %d, %v", v, d.Err())
	}
}

// TestStickyFirstError: the first failure is the one Err reports, a
// value-level Fail after it does not replace it, and a failure ends the
// input so later reads return zero without advancing.
func TestStickyFirstError(t *testing.T) {
	e := NewEncoder(16)
	e.PutUint32(7)
	e.PutUint32(0xFFFFFFFF) // hostile opaque length
	e.PutUint32(9)
	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 7 || d.Err() != nil {
		t.Fatalf("first read: %d, %v", v, d.Err())
	}
	if b := d.Opaque(); b != nil || d.Err() != ErrTooLong {
		t.Fatalf("hostile opaque: %x, %v", b, d.Err())
	}
	d.Fail(errors.New("later"))
	if d.Err() != ErrTooLong {
		t.Fatalf("Fail replaced the first error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("failure left %d bytes to read", d.Remaining())
	}
	off := d.Offset()
	if d.Uint32() != 0 || d.Uint64() != 0 || d.Bool() || d.Count() != 0 ||
		d.String() != "" || d.Opaque() != nil || d.FixedOpaque(0) != nil {
		t.Fatal("a read after the failure returned a nonzero value")
	}
	if d.Offset() != off || d.Err() != ErrTooLong {
		t.Fatalf("reads after the failure moved the cursor to %d (from %d) or changed the error to %v", d.Offset(), off, d.Err())
	}
}

// TestFailEndsInput: a value-level failure is sticky like a short read.
func TestFailEndsInput(t *testing.T) {
	bad := errors.New("bad field")
	d := NewDecoder([]byte{0, 0, 0, 1, 0, 0, 0, 2})
	d.Uint32()
	d.Fail(bad)
	if v := d.Uint32(); v != 0 || d.Err() != bad {
		t.Fatalf("read after Fail: %d, %v", v, d.Err())
	}
}

func TestHostileLength(t *testing.T) {
	// A length field of 0xFFFFFFFF must not cause a huge allocation.
	d := NewDecoder([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	if b := d.Opaque(); b != nil || d.Err() != ErrTooLong {
		t.Errorf("hostile length: %x, err = %v, want ErrTooLong", b, d.Err())
	}
	d = NewDecoder([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if n := d.Count(); n != 0 || !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("hostile count: %d, err = %v, want ErrTooLong", n, d.Err())
	}
}

// TestNeverPanicsPastEnd reads every kind of field from every prefix of
// a short buffer; none may panic, and a failed read returns zero.
func TestNeverPanicsPastEnd(t *testing.T) {
	buf := []byte{0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 0, 0, 1}
	for n := 0; n <= len(buf); n++ {
		for _, read := range []func(*Decoder) bool{
			func(d *Decoder) bool { return d.Uint32() == 0 },
			func(d *Decoder) bool { return d.Uint64() == 0 },
			func(d *Decoder) bool { return !d.Bool() },
			func(d *Decoder) bool { return d.FixedOpaque(5) == nil },
			func(d *Decoder) bool { return d.Opaque() == nil },
			func(d *Decoder) bool { return d.String() == "" },
			func(d *Decoder) bool { return d.Count() == 0 },
		} {
			d := NewDecoder(buf[:n])
			for i := 0; i < 5; i++ {
				if zero := read(d); d.Err() != nil && !zero {
					t.Fatalf("prefix %d: failed read returned a value", n)
				}
			}
			if d.Remaining() < 0 || d.Offset() > n {
				t.Fatalf("prefix %d: cursor at %d", n, d.Offset())
			}
		}
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.PutUint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("len after reset = %d", e.Len())
	}
	e.PutUint32(2)
	if v := NewDecoder(e.Bytes()).Uint32(); v != 2 {
		t.Fatalf("after reset round trip = %d", v)
	}
}

func TestFixedOpaque(t *testing.T) {
	e := NewEncoder(16)
	e.PutFixedOpaque([]byte{1, 2, 3})
	if e.Len() != 4 {
		t.Fatalf("fixed opaque len = %d, want 4 (3+1 pad)", e.Len())
	}
	d := NewDecoder(e.Bytes())
	b := d.FixedOpaque(3)
	if d.Err() != nil || !bytes.Equal(b, []byte{1, 2, 3}) || d.Remaining() != 0 {
		t.Fatalf("fixed opaque round trip: %x %v rem=%d", b, d.Err(), d.Remaining())
	}
	d = NewDecoder(nil)
	if b := d.FixedOpaque(-1); b != nil || d.Err() != ErrTooLong {
		t.Errorf("negative length: %x, %v", b, d.Err())
	}
}

func TestMixedSequence(t *testing.T) {
	e := NewEncoder(64)
	e.PutUint32(0xdeadbeef)
	e.PutString("hello")
	e.PutUint64(1 << 40)
	e.PutBool(true)
	e.PutOpaque([]byte{9, 9})
	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 0xdeadbeef {
		t.Fatal("u32")
	}
	if s := d.String(); s != "hello" {
		t.Fatal("string")
	}
	if v := d.Uint64(); v != 1<<40 {
		t.Fatal("u64")
	}
	if !d.Bool() {
		t.Fatal("bool")
	}
	if o := d.Opaque(); !bytes.Equal(o, []byte{9, 9}) {
		t.Fatal("opaque")
	}
	if d.Remaining() != 0 || d.Err() != nil {
		t.Fatalf("remaining = %d, err = %v", d.Remaining(), d.Err())
	}
}
