// Package core defines the trace record model at the heart of the
// reproduction: the timestamped per-message records the sniffer emits
// (one per NFS call and one per reply, as the paper's tcpdump-derived
// tracer did), the joined call/reply operations the analyses consume,
// and the text trace format used to store and exchange traces.
//
// The text format is one record per line, nfsdump-like:
//
//	<time> C <client>.<port> <server> <proto> <xid> <vers> <proc> k=v ...
//	<time> R <client>.<port> <server> <proto> <xid> <vers> <proc> status=<n> k=v ...
//
// All integers are decimal except xid and file handles, which are hex.
// Filenames (name, name2) escape the bytes that would end a field, a
// line or a key — space as \s, tab \t, newline \n, carriage return \r,
// vertical tab \v, form feed \f, '=' as \e and the backslash as \\ —
// and carry every other byte raw, UTF-8 or not.
// Unknown keys are ignored on read, so the format is extensible.
//
// In memory, file handles and procedure names are interned (see
// intern.go): Record carries FH/ProcID integer IDs, and the original
// spellings reappear only when a record is rendered back to a trace
// format.
package core

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Direction of a record.
const (
	KindCall  = 'C'
	KindReply = 'R'
)

// Transport protocol tags.
const (
	ProtoUDP = 'U'
	ProtoTCP = 'T'
)

// Record is one traced NFS message (call or reply). Fields that do not
// apply to a given procedure are zero.
type Record struct {
	Time    float64 // seconds since trace epoch
	Kind    byte    // KindCall or KindReply
	Client  uint32  // client IP (host order)
	Port    uint16  // client port
	Server  uint32  // server IP (host order)
	Proto   byte    // ProtoUDP or ProtoTCP
	XID     uint32
	Version uint32
	Proc    ProcID // interned v3-vocabulary procedure name

	// Call fields.
	UID, GID uint32
	FH       FH // primary handle, interned hex
	Name     string
	FH2      FH // target dir for rename/link
	Name2    string
	Offset   uint64
	Count    uint32 // requested bytes
	Stable   uint32
	SetSize  uint64 // setattr/create truncation target
	HasSet   bool

	// Reply fields.
	Status  uint32
	RCount  uint32 // bytes actually moved
	Size    uint64 // post-op file size
	FileID  uint64
	Mtime   float64
	PreSize uint64 // wcc pre-op size
	HasPre  bool
	NewFH   FH // handle returned by lookup/create
	EOF     bool
}

// ipString formats a host-order IP compactly as hex (shorter lines than
// dotted quad; traces hold tens of millions of records).
func ipString(v uint32) string { return strconv.FormatUint(uint64(v), 16) }

// AppendMarshal renders the record as one trace line (no trailing
// newline) appended to dst. It is the per-record serialization path of
// nfsconvert and nfsgen, so it is append-style throughout: no fmt, no
// intermediate strings.
func (r *Record) AppendMarshal(dst []byte) []byte {
	dst = appendSeconds(dst, r.Time)
	// Kind and Proto are single bytes on the wire; appending them as
	// bytes (never runes) keeps values ≥ 0x80 one byte, which the
	// parser requires of a tag.
	dst = append(dst, ' ', r.Kind, ' ')
	dst = strconv.AppendUint(dst, uint64(r.Client), 16)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(r.Port), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(r.Server), 16)
	dst = append(dst, ' ', r.Proto, ' ')
	dst = strconv.AppendUint(dst, uint64(r.XID), 16)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(r.Version), 10)
	dst = append(dst, ' ')
	dst = append(dst, r.Proc.String()...)
	kvs := func(k string, v string) {
		dst = append(dst, ' ')
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = append(dst, v...)
	}
	kvu := func(k string, v uint64) {
		dst = append(dst, ' ')
		dst = append(dst, k...)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, v, 10)
	}
	if r.Kind == KindCall {
		if r.FH != 0 {
			kvs("fh", r.FH.String())
		}
		if r.Name != "" {
			kvs("name", escape(r.Name))
		}
		if r.FH2 != 0 {
			kvs("fh2", r.FH2.String())
		}
		if r.Name2 != "" {
			kvs("name2", escape(r.Name2))
		}
		if r.Offset != 0 {
			kvu("off", r.Offset)
		}
		if r.Count != 0 {
			kvu("count", uint64(r.Count))
		}
		if r.Stable != 0 {
			kvu("stable", uint64(r.Stable))
		}
		if r.HasSet {
			kvu("setsize", r.SetSize)
		}
		kvu("uid", uint64(r.UID))
		kvu("gid", uint64(r.GID))
		return dst
	}
	kvu("status", uint64(r.Status))
	if r.RCount != 0 {
		kvu("rcount", uint64(r.RCount))
	}
	if r.Size != 0 {
		kvu("size", r.Size)
	}
	if r.FileID != 0 {
		kvu("fileid", r.FileID)
	}
	if r.Mtime != 0 {
		dst = append(dst, " mtime="...)
		dst = appendSeconds(dst, r.Mtime)
	}
	if r.HasPre {
		kvu("presize", r.PreSize)
	}
	if r.NewFH != 0 {
		kvs("newfh", r.NewFH.String())
	}
	if r.EOF {
		kvs("eof", "1")
	}
	return dst
}

// Marshal renders the record as one trace line (no trailing newline).
func (r *Record) Marshal() string {
	return string(r.AppendMarshal(make([]byte, 0, 160)))
}

// escapes maps each byte a name must not carry raw to the letter that
// follows its backslash: the field separators, the line break, '=' and
// the backslash itself.
var escapes = [256]byte{
	' ': 's', '\t': 't', '\n': 'n', '\r': 'r', '\v': 'v', '\f': 'f',
	'=': 'e', '\\': '\\',
}

// escape protects separators and control characters in filenames; the
// anonymizer usually removes the need, but raw traces must round-trip.
// It works byte by byte, so names that are not UTF-8 survive.
func escape(s string) string {
	i := 0
	for i < len(s) && escapes[s[i]] == 0 {
		i++
	}
	if i == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	b.WriteString(s[:i])
	for ; i < len(s); i++ {
		if e := escapes[s[i]]; e != 0 {
			b.WriteByte('\\')
			b.WriteByte(e)
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeBytes decodes the escape scheme into a fresh string. The
// input bytes are never retained.
func unescapeBytes(s []byte) string {
	i := 0
	for i < len(s) && s[i] != '\\' {
		i++
	}
	if i == len(s) {
		return string(s)
	}
	b := make([]byte, 0, len(s))
	b = append(b, s[:i]...)
	for ; i < len(s); i++ {
		if s[i] != '\\' || i == len(s)-1 {
			b = append(b, s[i])
			continue
		}
		i++
		switch s[i] {
		case 's':
			b = append(b, ' ')
		case 't':
			b = append(b, '\t')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 'v':
			b = append(b, '\v')
		case 'f':
			b = append(b, '\f')
		case 'e':
			b = append(b, '=')
		case '\\':
			b = append(b, '\\')
		default:
			b = append(b, s[i])
		}
	}
	return string(b)
}

// fieldSep marks the bytes that separate fields within a line.
var fieldSep = [256]bool{' ': true, '\t': true, '\v': true, '\f': true, '\r': true}

// hexVal maps a hex digit to its value and every other byte to 0xff.
var hexVal = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c-'a') + 10
		t[c-'a'+'A'] = byte(c-'a') + 10
	}
	return t
}()

// skipSeps returns the index of the first non-separator at or after i.
func skipSeps(line []byte, i int) int {
	for i < len(line) && fieldSep[line[i]] {
		i++
	}
	return i
}

// fieldEnd returns the index of the first separator at or after i, or
// len(line).
func fieldEnd(line []byte, i int) int {
	for i < len(line) && !fieldSep[line[i]] {
		i++
	}
	return i
}

// endsField reports whether a field ends at index i.
func endsField(line []byte, i int) bool { return i == len(line) || fieldSep[line[i]] }

// countFields counts the fields of line, for the short-record error.
func countFields(line []byte) int {
	n := 0
	for i := skipSeps(line, 0); i < len(line); i = skipSeps(line, fieldEnd(line, i)) {
		n++
	}
	return n
}

// scanHex32 parses the hex digits at line[i:], stopping at the first
// byte that is not one; end is that byte's index. ok is false when
// there is no digit or the value overflows 32 bits.
func scanHex32(line []byte, i int) (v uint32, end int, ok bool) {
	start := i
	var x uint64
	for ; i < len(line); i++ {
		d := hexVal[line[i]]
		if d > 15 {
			break
		}
		if x > math.MaxUint32>>4 {
			return 0, i, false
		}
		x = x<<4 | uint64(d)
	}
	return uint32(x), i, i > start
}

// scanDec parses the decimal digits at line[i:], stopping at the first
// byte that is not one; end is that byte's index. A value that would
// exceed max stops the scan at the digit that overflows: over is true
// and v is max.
func scanDec(line []byte, i int, max uint64) (v uint64, end int, over bool) {
	lim, last := max/10, max%10
	for ; i < len(line); i++ {
		d := uint64(line[i] - '0')
		if d > 9 {
			break
		}
		if v > lim || (v == lim && d > last) {
			return max, i, true
		}
		v = v*10 + d
	}
	return v, i, false
}

// scanUint parses a strict decimal header field at line[i:]: ok is
// false when it is empty, overflows max, or holds a foreign byte.
func scanUint(line []byte, i int, max uint64) (v uint64, end int, ok bool) {
	v, end, over := scanDec(line, i, max)
	return v, end, !over && end > i && endsField(line, end)
}

// kvUint parses a numeric k=v value at line[i:] and returns it with the
// field's end. Values keep the format's lenient reading: digits that
// overflow max saturate to it whatever follows, and an empty value or
// one with a foreign byte before any overflow reads as 0.
func kvUint(line []byte, i int, max uint64) (uint64, int) {
	v, j, over := scanDec(line, i, max)
	if !over && !endsField(line, j) {
		v = 0
	}
	return v, fieldEnd(line, j)
}

// clientError builds the error for the malformed client field at
// line[i:]; it runs only once the one-pass scan has failed.
func clientError(line []byte, i int) error {
	f := line[i:fieldEnd(line, i)]
	dot := bytes.IndexByte(f, '.')
	if dot < 0 {
		return fmt.Errorf("core: bad client %q", f)
	}
	if _, end, ok := scanHex32(f, 0); !ok || end != dot {
		return fmt.Errorf("core: bad client ip %q", f[:dot])
	}
	return fmt.Errorf("core: bad client port %q", f[dot+1:])
}

// parseTime parses a non-negative decimal seconds value. The fast path
// handles the canonical "%.6f" rendering (digits, optional point, up to
// six fractional digits) with exact integer arithmetic — bit-identical
// to strconv.ParseFloat for those inputs — and anything else (exponent
// forms, long fractions, huge values) falls back to the library parser.
func parseTime(b []byte) (float64, bool) {
	var whole, frac uint64
	i, fd := 0, 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		if whole > (1<<53)/10 {
			goto slow
		}
		whole = whole*10 + uint64(b[i]-'0')
		i++
	}
	if i == 0 {
		goto slow
	}
	if i == len(b) {
		return float64(whole), true
	}
	if b[i] != '.' {
		goto slow
	}
	i++
	if i == len(b) {
		goto slow // trailing dot: let the library decide
	}
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' || fd == 6 {
			goto slow
		}
		frac = frac*10 + uint64(b[i]-'0')
		fd++
	}
	for ; fd < 6; fd++ {
		frac *= 10
	}
	if whole > (1<<53)/1000000-1 { // keep whole*1e6+frac under 2^53
		goto slow
	}
	// whole*1e6+frac < 2^53, so the quotient by the exactly
	// representable 1e6 is correctly rounded: the nearest float64 to
	// the decimal input, exactly as ParseFloat computes it.
	return float64(whole*1e6+frac) / 1e6, true

slow:
	v, err := strconv.ParseFloat(string(b), 64)
	return v, err == nil
}

// UnmarshalRecordBytes parses one trace line into r, which must be
// zeroed (fresh, recycled, or reset to Record{}): optional
// kv fields are assigned only when present, so a reused dirty Record
// would keep stale values. No reference into line is retained: handles
// and procedure names are interned, and filename fields are copied. On
// the hot path — a record with no filename — parsing performs no
// allocation.
//
// The line is read in one pass. Hex and decimal fields are parsed as
// they are scanned, stopping at a separator and failing on the first
// foreign byte; a key is scanned once, up to its '='. Only a failed
// field is scanned again, to quote it in the error.
func UnmarshalRecordBytes(line []byte, r *Record) error {
	// The 8 header fields plus at least one kv field are mandatory; a
	// field that is missing outright surfaces as the short-record
	// error (the total count is recomputed only on that cold path).
	short := func() error {
		return fmt.Errorf("core: short record (%d fields)", countFields(line))
	}
	// Each header field starts at i; e is where its parse stopped.
	i := skipSeps(line, 0)
	if i == len(line) {
		return short()
	}
	e := fieldEnd(line, i)
	var ok bool
	if r.Time, ok = parseTime(line[i:e]); !ok {
		return fmt.Errorf("core: bad time %q", line[i:e])
	}
	if i = skipSeps(line, e); i == len(line) {
		return short()
	}
	if c := line[i]; (c != KindCall && c != KindReply) || !endsField(line, i+1) {
		return fmt.Errorf("core: bad kind %q", line[i:fieldEnd(line, i)])
	}
	r.Kind = line[i]
	if i = skipSeps(line, i+1); i == len(line) {
		return short()
	}
	var v uint64
	if r.Client, e, ok = scanHex32(line, i); !ok || e == len(line) || line[e] != '.' {
		return clientError(line, i)
	}
	if v, e, ok = scanUint(line, e+1, math.MaxUint16); !ok {
		return clientError(line, i)
	}
	r.Port = uint16(v)
	if i = skipSeps(line, e); i == len(line) {
		return short()
	}
	if r.Server, e, ok = scanHex32(line, i); !ok || !endsField(line, e) {
		return fmt.Errorf("core: bad server ip %q", line[i:fieldEnd(line, i)])
	}
	if i = skipSeps(line, e); i == len(line) {
		return short()
	}
	if !endsField(line, i+1) {
		return fmt.Errorf("core: bad proto %q", line[i:fieldEnd(line, i)])
	}
	r.Proto = line[i]
	if i = skipSeps(line, i+1); i == len(line) {
		return short()
	}
	if r.XID, e, ok = scanHex32(line, i); !ok || !endsField(line, e) {
		return fmt.Errorf("core: bad xid %q", line[i:fieldEnd(line, i)])
	}
	if i = skipSeps(line, e); i == len(line) {
		return short()
	}
	if v, e, ok = scanUint(line, i, math.MaxUint32); !ok {
		return fmt.Errorf("core: bad version %q", line[i:fieldEnd(line, i)])
	}
	r.Version = uint32(v)
	if i = skipSeps(line, e); i == len(line) {
		return short()
	}
	// Interning is deferred to the end of the parse: a malformed line
	// must not register its (possibly garbage) proc token in the
	// process-global table, which holds at most 256 distinct names.
	e = fieldEnd(line, i)
	procField := line[i:e]

	for first := true; ; first = false {
		if i = skipSeps(line, e); i == len(line) {
			if first {
				return short() // the 9th field is mandatory
			}
			proc, err := InternProcBytes(procField)
			if err != nil {
				return fmt.Errorf("core: bad proc %q: %w", procField, err)
			}
			r.Proc = proc
			return nil
		}
		k := i
		for i < len(line) && line[i] != '=' && !fieldSep[line[i]] {
			i++
		}
		if i == len(line) || line[i] != '=' {
			e = i // no '=': not a kv field
			continue
		}
		// The value starts after the '='.
		key := line[k:i]
		i++
		switch string(key) { // compiler avoids the conversion in a switch
		case "fh":
			e = fieldEnd(line, i)
			r.FH = InternFHBytes(line[i:e])
		case "name":
			e = fieldEnd(line, i)
			r.Name = unescapeBytes(line[i:e])
		case "fh2":
			e = fieldEnd(line, i)
			r.FH2 = InternFHBytes(line[i:e])
		case "name2":
			e = fieldEnd(line, i)
			r.Name2 = unescapeBytes(line[i:e])
		case "off":
			r.Offset, e = kvUint(line, i, math.MaxUint64)
		case "count":
			v, e = kvUint(line, i, math.MaxUint32)
			r.Count = uint32(v)
		case "stable":
			v, e = kvUint(line, i, math.MaxUint32)
			r.Stable = uint32(v)
		case "setsize":
			r.SetSize, e = kvUint(line, i, math.MaxUint64)
			r.HasSet = true
		case "uid":
			v, e = kvUint(line, i, math.MaxUint32)
			r.UID = uint32(v)
		case "gid":
			v, e = kvUint(line, i, math.MaxUint32)
			r.GID = uint32(v)
		case "status":
			v, e = kvUint(line, i, math.MaxUint32)
			r.Status = uint32(v)
		case "rcount":
			v, e = kvUint(line, i, math.MaxUint32)
			r.RCount = uint32(v)
		case "size":
			r.Size, e = kvUint(line, i, math.MaxUint64)
		case "fileid":
			r.FileID, e = kvUint(line, i, math.MaxUint64)
		case "mtime":
			e = fieldEnd(line, i)
			r.Mtime, _ = parseTime(line[i:e])
		case "presize":
			r.PreSize, e = kvUint(line, i, math.MaxUint64)
			r.HasPre = true
		case "newfh":
			e = fieldEnd(line, i)
			r.NewFH = InternFHBytes(line[i:e])
		case "eof":
			e = fieldEnd(line, i)
			r.EOF = e == i+1 && line[i] == '1'
		default:
			e = fieldEnd(line, i)
		}
	}
}

// UnmarshalRecord parses one trace line.
func UnmarshalRecord(line string) (*Record, error) {
	r := new(Record)
	if err := UnmarshalRecordBytes([]byte(line), r); err != nil {
		return nil, err
	}
	return r, nil
}
