package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// encodeSample builds a small two-section file exercising every value
// type, including dictionary-interned handles and procedures.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	fh := core.InternFH("deadbeef01")
	fh2 := core.InternFH("deadbeef02")
	proc, err := core.InternProc("read")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder()
	e.Section("alpha")
	e.Uvarint(42)
	e.Varint(-7)
	e.F64(3.25)
	e.F64(math.Inf(1))
	e.Bool(true)
	e.Bool(false)
	e.String("hello")
	e.Bytes([]byte{1, 2, 3})
	e.FH(fh)
	e.FH(fh2)
	e.FH(fh) // repeat reuses the dictionary slot
	e.Proc(proc)
	e.Section("beta")
	e.Uvarint(7)
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := encodeSample(t)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.names; len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("sections = %v", got)
	}
	d, ok := f.Section("alpha")
	if !ok {
		t.Fatal("no alpha section")
	}
	if v := d.Uvarint(); v != 42 {
		t.Fatalf("uvarint = %d", v)
	}
	if v := d.Varint(); v != -7 {
		t.Fatalf("varint = %d", v)
	}
	if v := d.F64(); v != 3.25 {
		t.Fatalf("f64 = %v", v)
	}
	if v := d.F64(); !math.IsInf(v, 1) {
		t.Fatalf("f64 inf = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools corrupted")
	}
	if v := d.String("s"); v != "hello" {
		t.Fatalf("string = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v", v)
	}
	fh := d.FH()
	fh2 := d.FH()
	fh3 := d.FH()
	if fh != fh3 || fh == fh2 {
		t.Fatalf("fh dictionary broken: %v %v %v", fh, fh2, fh3)
	}
	// Re-interning must recover the canonical spellings.
	if fh.String() != "deadbeef01" || fh2.String() != "deadbeef02" {
		t.Fatalf("fh spellings %q %q", fh.String(), fh2.String())
	}
	if p := d.Proc(); p.String() != "read" {
		t.Fatalf("proc = %q", p.String())
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	db, ok := f.Section("beta")
	if !ok {
		t.Fatal("no beta section")
	}
	if v := db.Uvarint(); v != 7 {
		t.Fatalf("beta uvarint = %d", v)
	}
	if err := db.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumCatchesBitFlip(t *testing.T) {
	data := encodeSample(t)
	// Flip one bit in every body byte position (past the header) and
	// check each damaged file is rejected as corrupt.
	const headerLen = len(magic) + 2 + 32
	for off := headerLen; off < len(data); off++ {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		_, err := Parse(bad)
		if err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: error %v does not wrap ErrCorrupt", off, err)
		}
	}
}

func TestTruncation(t *testing.T) {
	data := encodeSample(t)
	for n := 0; n < len(data); n += 7 {
		_, err := Parse(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	data := encodeSample(t)
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	_, err := Parse(bad)
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestVersionSkew(t *testing.T) {
	data := encodeSample(t)
	for _, v := range []uint16{Version - 1, Version + 1} {
		skewed := append([]byte(nil), data...)
		binary.LittleEndian.PutUint16(skewed[len(magic):], v)
		_, err := Parse(skewed)
		if err == nil {
			t.Fatalf("version %d accepted", v)
		}
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("version %d: error %T is not *VersionError", v, err)
		}
		if ve.Got != v || ve.Supported != Version {
			t.Fatalf("version %d: VersionError = %+v", v, ve)
		}
		// The message names both versions, so operators know which side
		// to change, and takes no side on which is newer.
		msg := ve.Error()
		if !strings.Contains(msg, fmt.Sprintf("version %d", v)) ||
			!strings.Contains(msg, fmt.Sprintf("version %d", Version)) || strings.Contains(msg, "newer") {
			t.Fatalf("version %d: message %q", v, msg)
		}
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	data := encodeSample(t)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f.Section("alpha")
	d.Uvarint() // read only part of the section
	if err := d.Finish(); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

func TestStickyError(t *testing.T) {
	f := &File{}
	d := &Decoder{f: f, name: "t", b: []byte{0xff}} // truncated uvarint
	if d.Uvarint() != 0 || d.Err() == nil {
		t.Fatal("truncated uvarint not detected")
	}
	first := d.Err()
	// Every subsequent read is a zero-value no-op preserving the first
	// error.
	if d.Varint() != 0 || d.F64() != 0 || d.Bool() || d.String("s") != "" || d.FH() != 0 {
		t.Fatal("reads after failure returned nonzero")
	}
	if d.Err() != first {
		t.Fatalf("first error %v replaced by %v", first, d.Err())
	}
}

func TestCountRejectsOverflow(t *testing.T) {
	// A count far exceeding the remaining bytes must fail before any
	// allocation proportional to it.
	var b []byte
	b = binary.AppendUvarint(b, 1<<40)
	d := &Decoder{name: "t", b: b}
	if n := d.Count("entries"); n != 0 || d.Err() == nil {
		t.Fatalf("hostile count accepted: n=%d err=%v", n, d.Err())
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", d.Err())
	}
}

func TestDictionaryIndexOutOfRange(t *testing.T) {
	e := NewEncoder()
	e.Section("s")
	e.Uvarint(99) // pretend dictionary index with an empty dictionary
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f.Section("s")
	if d.FH() != 0 || d.Err() == nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("out-of-range fh index: %v", d.Err())
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	e := NewEncoder()
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.names) != 0 {
		t.Fatalf("sections = %v", f.names)
	}
	if _, ok := f.Section("nope"); ok {
		t.Fatal("found a section in an empty file")
	}
}
