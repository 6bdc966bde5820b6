package state

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
)

// Codec writes a section's layout once for both directions. A State
// method hands every field to the codec by pointer: an encoding Codec
// (Encoder.Codec) writes the field, a decoding Codec (Decoder.Codec)
// overwrites it with what it reads. Encoding only reads the fields, and
// decoding is meant to fill a freshly constructed value.
//
// Validation is part of the layout and runs in both directions: a
// configuration a State method checks with Failf, or a value Below
// rejects, fails the decode with the decoder's sticky ErrCorrupt, and
// fails the encode too, so a state that could not be read back is never
// written (Encoder.Flush returns the failure).
type Codec struct {
	e *Encoder
	d *Decoder
}

// Codec returns a Codec that writes to the encoder's current section.
func (e *Encoder) Codec() *Codec { return &Codec{e: e} }

// Codec returns a Codec that reads the decoder's section.
func (d *Decoder) Codec() *Codec { return &Codec{d: d} }

// Decoding reports whether c reads fields rather than writing them.
func (c *Codec) Decoding() bool { return c.d != nil }

// Err reports the first failure in either direction, or nil.
func (c *Codec) Err() error {
	if c.d != nil {
		return c.d.err
	}
	return c.e.err
}

// Failf records a semantic failure: a value that codes fine but is
// invalid (a configuration mismatch, an index out of range). It is
// sticky like every other failure.
func (c *Codec) Failf(format string, args ...interface{}) {
	if c.d != nil {
		c.d.Failf(format, args...)
	} else if c.e.err == nil {
		c.e.err = fmt.Errorf("state: cannot encode: "+format, args...)
	}
}

// Uvarint codes an unsigned varint.
func (c *Codec) Uvarint(v *uint64) {
	if c.d != nil {
		*v = c.d.Uvarint()
	} else {
		c.e.Uvarint(*v)
	}
}

// Varint codes a signed (zigzag) varint.
func (c *Codec) Varint(v *int64) {
	if c.d != nil {
		*v = c.d.Varint()
	} else {
		c.e.Varint(*v)
	}
}

// F64 codes a float64 bit-exactly.
func (c *Codec) F64(v *float64) {
	if c.d != nil {
		*v = c.d.F64()
	} else {
		c.e.F64(*v)
	}
}

// Bool codes a boolean as one byte.
func (c *Codec) Bool(v *bool) {
	if c.d != nil {
		*v = c.d.Bool()
	} else {
		c.e.Bool(*v)
	}
}

// Bytes codes a length-prefixed byte string. A decoded one is a view
// into the file buffer, nil when empty.
func (c *Codec) Bytes(v *[]byte) {
	if c.d == nil {
		c.e.Bytes(*v)
	} else if *v = c.d.Bytes(); len(*v) == 0 {
		*v = nil
	}
}

// String codes a length-prefixed string; what names it in errors.
func (c *Codec) String(v *string, what string) {
	if c.d != nil {
		*v = c.d.String(what)
	} else {
		c.e.String(*v)
	}
}

// FH codes a file handle through the file-handle dictionary.
func (c *Codec) FH(v *core.FH) {
	if c.d != nil {
		*v = c.d.FH()
	} else {
		c.e.FH(*v)
	}
}

// Proc codes a procedure through the procedure dictionary.
func (c *Codec) Proc(v *core.ProcID) {
	if c.d != nil {
		*v = c.d.Proc()
	} else {
		c.e.Proc(*v)
	}
}

// Below codes an integer that must be below limit, as a uvarint. The
// decoded value is checked before it is narrowed to T, so a huge value
// cannot wrap around into range.
func Below[T ~int | ~uint32 | ~uint64](c *Codec, v *T, limit uint64, what string) {
	u := uint64(*v)
	c.Uvarint(&u)
	if u >= limit {
		c.Failf("%s %d out of range (limit %d)", what, u, limit)
	} else if c.d != nil {
		*v = T(u)
	}
}

// Slice codes a slice as a count and its elements. Decoding replaces *s
// with the elements read, appended one by one: memory grows with the
// bytes actually present, never with the count a hostile file claims.
func Slice[T any](c *Codec, s *[]T, what string, elem func(*T)) {
	if c.d == nil {
		c.e.Uvarint(uint64(len(*s)))
		for i := range *s {
			elem(&(*s)[i])
		}
		return
	}
	n := c.d.Count(what)
	*s = nil
	var zero T
	for i := 0; i < n && c.d.err == nil; i++ {
		// Decode in place: a pointer to a fresh local would move every
		// element to the heap on its own.
		*s = append(*s, zero)
		elem(&(*s)[i])
	}
}

// Map codes a map as a count and its entries. Encoding writes the
// entries in key order under compare, so the bytes depend only on what
// the map holds, never on Go's iteration order. Decoding replaces *m
// with a map of the entries read, each into a zero key and value; like
// Slice, it grows by insertion, never to a size the count claims.
func Map[M ~map[K]V, K comparable, V any](c *Codec, m *M, what string, compare func(a, b K) int, entry func(*K, *V)) {
	// One key and value for every entry: each would otherwise move to
	// the heap on its own.
	var k, zk K
	var v, zv V
	if c.d == nil {
		keys := make([]K, 0, len(*m))
		for key := range *m {
			keys = append(keys, key)
		}
		slices.SortFunc(keys, compare)
		c.e.Uvarint(uint64(len(keys)))
		for _, k = range keys {
			v = (*m)[k]
			entry(&k, &v)
		}
		return
	}
	n := c.d.Count(what)
	*m = make(M)
	for i := 0; i < n && c.d.err == nil; i++ {
		k, v = zk, zv
		if entry(&k, &v); c.d.err == nil {
			(*m)[k] = v
		}
	}
}

// CompareFH orders handles by spelling: interned IDs depend on arrival
// order, spellings are the same in every process.
func CompareFH(a, b core.FH) int { return strings.Compare(a.String(), b.String()) }

// CompareProc orders procedures by name, for the same reason.
func CompareProc(a, b core.ProcID) int { return strings.Compare(a.String(), b.String()) }

// CompareBinding orders (directory, name) bindings by directory
// spelling, then name.
func CompareBinding(adir core.FH, aname string, bdir core.FH, bname string) int {
	if c := CompareFH(adir, bdir); c != 0 {
		return c
	}
	return strings.Compare(aname, bname)
}
