// Package state implements the versioned binary container for
// serialized reducer state — the on-disk form that lets an analysis
// fan out across processes and machines and merge back byte-identically
// (nfsanalyze -partial / -merge / -coordinator), and that gives long
// runs checkpoint/resume for free.
//
// A state file is:
//
//	magic "nfsstate" | format version (uint16 LE)
//	body checksum: SHA-256 over everything after this field (32 bytes)
//	file-handle dictionary: uvarint count, then that many strings
//	procedure dictionary:   uvarint count, then that many strings
//	section count, then sections: name string, uvarint length, payload
//
// Interned IDs (core.FH, core.ProcID) are process-local — they depend
// on arrival order — so they never appear in a file. Sections reference
// handles and procedures by dense file-local dictionary indexes, in
// first-use order; the dictionaries carry the canonical spellings, and
// the reader re-interns them in the receiving process. Strings are
// uvarint length + bytes; integers are varints (zigzag for signed);
// floats are 8 little-endian bytes of math.Float64bits, so values round
// trip bit-exactly and merged output stays byte-identical.
//
// Decoding is defensive: the body checksum catches any flipped bit up
// front, every read is bounds-checked, every count is validated against
// the bytes that remain, and every failure wraps ErrCorrupt (or
// *VersionError for a future-format file) — hostile input yields a
// structured error, never a panic and never a silent partial merge.
package state

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
)

// Version is the current file format version. A reader rejects any file
// with a newer version (see VersionError); older versions, when they
// exist, decode via compatibility paths.
const Version = 1

// magic identifies a state file; it is exactly 8 bytes.
const magic = "nfsstate"

// ErrCorrupt is wrapped by every decode failure caused by malformed
// input, so callers (and the fuzz target) can classify errors with
// errors.Is.
var ErrCorrupt = errors.New("corrupt state file")

// VersionError reports a state file written by a newer format than this
// build supports.
type VersionError struct {
	Got, Supported uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("state file format version %d is newer than supported version %d; upgrade the reader", e.Got, e.Supported)
}

// corruptf builds an ErrCorrupt-wrapping error.
func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("state: "+format+": %w", append(args, ErrCorrupt)...)
}

// Encoder builds a state file in memory: sections are buffered so the
// dictionaries (which grow as sections reference handles and
// procedures) can be written first, where the reader needs them.
type Encoder struct {
	names    []string
	payloads [][]byte
	cur      []byte

	fhIDs   map[core.FH]uint64
	fhs     []core.FH
	procIDs map[core.ProcID]uint64
	procs   []core.ProcID

	err error // first validation failure a Codec recorded; Flush reports it
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{
		fhIDs:   make(map[core.FH]uint64),
		procIDs: make(map[core.ProcID]uint64),
	}
}

// Section starts a new named section; subsequent writes go to it until
// the next Section or Flush.
func (e *Encoder) Section(name string) {
	e.closeSection()
	e.names = append(e.names, name)
	e.cur = nil
}

func (e *Encoder) closeSection() {
	if len(e.names) > len(e.payloads) {
		e.payloads = append(e.payloads, e.cur)
		e.cur = nil
	}
}

// Uvarint writes an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.cur = binary.AppendUvarint(e.cur, v) }

// Varint writes a signed (zigzag) varint.
func (e *Encoder) Varint(v int64) { e.cur = binary.AppendVarint(e.cur, v) }

// F64 writes a float64 as its 8 IEEE-754 bits, little endian.
func (e *Encoder) F64(v float64) {
	e.cur = binary.LittleEndian.AppendUint64(e.cur, math.Float64bits(v))
}

// Bool writes one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.cur = append(e.cur, 1)
	} else {
		e.cur = append(e.cur, 0)
	}
}

// Bytes writes a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.cur = append(e.cur, b...)
}

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.cur = append(e.cur, s...)
}

// FH writes a file handle as its file-local dictionary index, assigned
// in first-use order. The handle's canonical spelling lands in the
// dictionary, so the ID survives the process boundary.
func (e *Encoder) FH(fh core.FH) {
	id, ok := e.fhIDs[fh]
	if !ok {
		id = uint64(len(e.fhs))
		e.fhIDs[fh] = id
		e.fhs = append(e.fhs, fh)
	}
	e.Uvarint(id)
}

// Proc writes a procedure as its file-local dictionary index.
func (e *Encoder) Proc(p core.ProcID) {
	id, ok := e.procIDs[p]
	if !ok {
		id = uint64(len(e.procs))
		e.procIDs[p] = id
		e.procs = append(e.procs, p)
	}
	e.Uvarint(id)
}

// Flush writes the complete file: header, body checksum, dictionaries,
// then every section in the order they were declared. If a Codec
// recorded a failure while encoding, Flush writes nothing and returns
// it: a state that would not read back is not written either.
func (e *Encoder) Flush(w io.Writer) error {
	if e.err != nil {
		return e.err
	}
	e.closeSection()
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(e.fhs)))
	for _, fh := range e.fhs {
		s := fh.String()
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	body = binary.AppendUvarint(body, uint64(len(e.procs)))
	for _, p := range e.procs {
		s := p.String()
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	body = binary.AppendUvarint(body, uint64(len(e.names)))
	for i, name := range e.names {
		body = binary.AppendUvarint(body, uint64(len(name)))
		body = append(body, name...)
		body = binary.AppendUvarint(body, uint64(len(e.payloads[i])))
		body = append(body, e.payloads[i]...)
	}
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(magic)+2+len(sum)+len(body))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = append(out, sum[:]...)
	out = append(out, body...)
	_, err := w.Write(out)
	return err
}

// File is a parsed state file: dictionaries plus an index of named
// sections. Dictionary entries are interned lazily, on first reference
// from a section, so a file that merely mentions many handles costs
// only its own bytes until they are actually used.
type File struct {
	fhSpell   []string
	fhCache   []core.FH
	fhValid   []bool
	procSpell []string
	procCache []core.ProcID
	procValid []bool

	names    []string
	payloads [][]byte
}

// Parse parses a complete state file held in data. The File keeps views
// into data instead of copying it, so data must not change while the
// File is in use.
func Parse(data []byte) (*File, error) {
	const headerLen = len(magic) + 2 + sha256.Size
	if len(data) < headerLen {
		return nil, corruptf("file too short for header (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, corruptf("bad magic %q: not a state file", data[:len(magic)])
	}
	version := binary.LittleEndian.Uint16(data[len(magic) : len(magic)+2])
	if version > Version {
		return nil, &VersionError{Got: version, Supported: Version}
	}
	var want [sha256.Size]byte
	copy(want[:], data[len(magic)+2:headerLen])
	if sha256.Sum256(data[headerLen:]) != want {
		return nil, corruptf("body checksum mismatch: file is damaged")
	}
	d := &Decoder{name: "header", b: data, off: headerLen}

	f := &File{}
	var err error
	f.fhSpell, err = d.stringList("file-handle dictionary")
	if err != nil {
		return nil, err
	}
	f.procSpell, err = d.stringList("procedure dictionary")
	if err != nil {
		return nil, err
	}
	f.fhCache = make([]core.FH, len(f.fhSpell))
	f.fhValid = make([]bool, len(f.fhSpell))
	f.procCache = make([]core.ProcID, len(f.procSpell))
	f.procValid = make([]bool, len(f.procSpell))

	n := d.Count("section count")
	for i := 0; i < n && d.err == nil; i++ {
		name := d.String("section name")
		plen := d.Count("section length")
		if d.err != nil {
			break
		}
		f.names = append(f.names, name)
		f.payloads = append(f.payloads, d.b[d.off:d.off+plen])
		d.off += plen
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}

// stringList reads a count-prefixed list of strings.
func (d *Decoder) stringList(what string) ([]string, error) {
	n := d.Count(what + " count")
	if d.err != nil {
		return nil, d.err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String(what+" entry"))
		if d.err != nil {
			return nil, d.err
		}
	}
	return out, nil
}

// Section returns a decoder over the first section with the given name,
// or ok=false if the file has none.
func (f *File) Section(name string) (*Decoder, bool) {
	for i, n := range f.names {
		if n == name {
			return &Decoder{f: f, name: name, b: f.payloads[i]}, true
		}
	}
	return nil, false
}

// Decoder reads one section's payload with a sticky error: after any
// failure every subsequent read is a no-op returning zero values, and
// Err reports the first failure. Nothing here panics on malformed
// input.
type Decoder struct {
	f    *File
	name string
	b    []byte
	off  int
	err  error
}

// Err reports the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records a semantic decode failure — a value that parsed but is
// invalid (config mismatch, out-of-range index). It wraps ErrCorrupt
// like every other decode error and is sticky the same way.
func (d *Decoder) Failf(format string, args ...interface{}) {
	d.fail(format, args...)
}

func (d *Decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = corruptf("section %q: "+format, append([]interface{}{d.name}, args...)...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed (zigzag) varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// F64 reads a float64 written by Encoder.F64.
func (d *Decoder) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated boolean at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

// Count reads a uvarint that counts elements still to be decoded and
// validates it against the bytes remaining (every element costs at
// least one byte), so hostile counts cannot drive huge allocations.
func (d *Decoder) Count(what string) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.fail("%s %d exceeds %d remaining bytes", what, v, len(d.b)-d.off)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string (a view into the file
// buffer, not a copy).
func (d *Decoder) Bytes() []byte {
	n := d.Count("byte-string length")
	if d.err != nil {
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String(what string) string {
	n := d.Count(what + " length")
	if d.err != nil {
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

// FH reads a file-local dictionary index and re-interns the spelling in
// this process, so the returned handle is valid here whatever process
// wrote the file.
func (d *Decoder) FH() core.FH {
	id := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if d.f == nil || id >= uint64(len(d.f.fhSpell)) {
		d.fail("file-handle index %d outside dictionary of %d", id, dictLen(d.f))
		return 0
	}
	if !d.f.fhValid[id] {
		d.f.fhCache[id] = core.InternFH(d.f.fhSpell[id])
		d.f.fhValid[id] = true
	}
	return d.f.fhCache[id]
}

func dictLen(f *File) int {
	if f == nil {
		return 0
	}
	return len(f.fhSpell)
}

// Proc reads a file-local procedure index and re-interns its name.
// Interning can fail (the procedure table is finite); that surfaces as
// a decode error.
func (d *Decoder) Proc() core.ProcID {
	id := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if d.f == nil || id >= uint64(len(d.f.procSpell)) {
		d.fail("procedure index %d outside dictionary", id)
		return 0
	}
	if !d.f.procValid[id] {
		p, err := core.InternProc(d.f.procSpell[id])
		if err != nil {
			d.fail("procedure %q: %v", d.f.procSpell[id], err)
			return 0
		}
		d.f.procCache[id] = p
		d.f.procValid[id] = true
	}
	return d.f.procCache[id]
}

// Finish reports an error if the section failed to decode or has
// trailing bytes — a length mismatch usually means a corrupt or
// truncated payload that happened to parse.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}
