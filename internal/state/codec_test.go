package state

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// sample is a layout using every Codec field kind.
type sample struct {
	u     uint64
	i     int64
	f     float64
	b     bool
	s     string
	raw   []byte
	fh    core.FH
	proc  core.ProcID
	small int
	list  []float64
	m     map[core.FH]int64
}

func (s *sample) state(c *Codec) {
	c.Uvarint(&s.u)
	c.Varint(&s.i)
	c.F64(&s.f)
	c.Bool(&s.b)
	c.String(&s.s, "s")
	c.Bytes(&s.raw)
	c.FH(&s.fh)
	c.Proc(&s.proc)
	Below(c, &s.small, 10, "small")
	Slice(c, &s.list, "list", c.F64)
	Map(c, &s.m, "m", CompareFH, func(fh *core.FH, n *int64) {
		c.FH(fh)
		c.Varint(n)
	})
}

// encodeWith writes one section "s" through code.
func encodeWith(t *testing.T, code func(*Codec)) []byte {
	t.Helper()
	e := NewEncoder()
	e.Section("s")
	code(e.Codec())
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeWith reads section "s" of data through code.
func decodeWith(t *testing.T, data []byte, code func(*Codec)) error {
	t.Helper()
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f.Section("s")
	c := d.Codec()
	if !c.Decoding() {
		t.Fatal("a decoder's codec does not report decoding")
	}
	if code(c); c.Err() != nil {
		return c.Err()
	}
	return d.Finish()
}

func TestCodecRoundTrip(t *testing.T) {
	want := &sample{
		u: 1 << 40, i: -3, f: 2.5, b: true, s: "name", raw: []byte{9, 8},
		fh: core.InternFH("codec-fh"), proc: core.MustProc("commit"), small: 7,
		list: []float64{1, -2, 3},
		m:    map[core.FH]int64{core.InternFH("codec-a"): 1, core.InternFH("codec-b"): -1},
	}
	data := encodeWith(t, want.state)
	got := &sample{}
	if err := decodeWith(t, data, got.state); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(encodeWith(t, got.state), data) {
		t.Fatal("decoded sample re-encodes to different bytes")
	}
	// Empty byte strings, slices and maps decode as nil, nil and empty.
	var empty sample
	if err := decodeWith(t, encodeWith(t, (&sample{}).state), empty.state); err != nil {
		t.Fatal(err)
	}
	if empty.raw != nil || empty.list != nil || empty.m == nil || len(empty.m) != 0 {
		t.Fatalf("empty fields decoded as %#v %#v %#v", empty.raw, empty.list, empty.m)
	}
}

// TestMapOrderIsCanonical: map entries go out in spelling order whatever
// the interned IDs or Go's iteration order, so equal maps write equal
// bytes, and the dictionary lists handles in that order too.
func TestMapOrderIsCanonical(t *testing.T) {
	spellings := []string{"canon-zz", "canon-mm", "canon-aa", "canon-qq"}
	m := make(map[core.FH]bool)
	for _, s := range spellings { // interned in reverse spelling order
		m[core.InternFH(s)] = true
	}
	code := func(c *Codec) {
		Map(c, &m, "set", CompareFH, func(fh *core.FH, in *bool) {
			c.FH(fh)
			*in = true
		})
	}
	first := encodeWith(t, code)
	for i := 0; i < 5; i++ {
		if !bytes.Equal(encodeWith(t, code), first) {
			t.Fatal("the same map encoded to different bytes")
		}
	}
	f, err := Parse(first)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"canon-aa", "canon-mm", "canon-qq", "canon-zz"}
	if !reflect.DeepEqual(f.fhSpell, want) {
		t.Fatalf("dictionary order %q, want %q", f.fhSpell, want)
	}
}

func TestCodecFailures(t *testing.T) {
	// Encoding a value its own layout rejects fails at Flush, which then
	// writes nothing.
	e := NewEncoder()
	e.Section("s")
	c := e.Codec()
	bad := &sample{small: 10}
	bad.state(c)
	c.Failf("second failure")
	var out bytes.Buffer
	if err := e.Flush(&out); err == nil || !strings.Contains(err.Error(), "small 10 out of range") || c.Err() != err {
		t.Fatalf("encoding an out-of-range value: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a failed encode wrote %d bytes", out.Len())
	}

	// A decoded value is range-checked before narrowing: 2^63+2 would
	// wrap to a negative int below the limit.
	for _, v := range []uint64{10, 1<<63 + 2} {
		data := encodeWith(t, func(c *Codec) {
			c.e.Uvarint(v)
		})
		var small int
		err := decodeWith(t, data, func(c *Codec) { Below(c, &small, 10, "small") })
		if !errors.Is(err, ErrCorrupt) || small != 0 {
			t.Fatalf("Below accepted %d as %d: %v", v, small, err)
		}
	}

	// A count larger than the bytes left fails before decoding anything.
	data := encodeWith(t, func(c *Codec) { c.e.Uvarint(1 << 30) })
	list := []float64{1}
	if err := decodeWith(t, data, func(c *Codec) { Slice(c, &list, "list", c.F64) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile slice count: %v", err)
	}
	m := map[core.FH]int64{}
	err := decodeWith(t, data, func(c *Codec) {
		Map(c, &m, "m", CompareFH, func(fh *core.FH, n *int64) { c.FH(fh) })
	})
	if !errors.Is(err, ErrCorrupt) || len(m) != 0 {
		t.Fatalf("hostile map count: %v, %d entries", err, len(m))
	}
}
