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
// Unknown keys are ignored on read, so the format is extensible.
//
// In memory, file handles and procedure names are interned (see
// intern.go): Record carries FH/ProcID integer IDs, and the original
// spellings reappear only when a record is rendered back to a trace
// format.
package core

import (
	"fmt"
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

// escape protects spaces and control characters in filenames; the
// anonymizer usually removes the need, but raw traces must round-trip.
func escape(s string) string {
	if !strings.ContainsAny(s, " \t\n\\=") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case ' ':
			b.WriteString("\\s")
		case '\t':
			b.WriteString("\\t")
		case '\n':
			b.WriteString("\\n")
		case '\\':
			b.WriteString("\\\\")
		case '=':
			b.WriteString("\\e")
		default:
			b.WriteRune(c)
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

// isFieldSep reports a byte that separates fields within a line.
func isFieldSep(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// nextField returns the next whitespace-delimited field of line
// starting at *pos, advancing *pos past it; ok is false at end of line.
func nextField(line []byte, pos *int) (field []byte, ok bool) {
	i := *pos
	for i < len(line) && isFieldSep(line[i]) {
		i++
	}
	if i >= len(line) {
		*pos = i
		return nil, false
	}
	start := i
	for i < len(line) && !isFieldSep(line[i]) {
		i++
	}
	*pos = i
	return line[start:i], true
}

func countFields(line []byte) int {
	n, pos := 0, 0
	for {
		if _, ok := nextField(line, &pos); !ok {
			return n
		}
		n++
	}
}

// parseUintDec parses a decimal field. Syntax errors yield (0, false).
// Overflow depends on the caller's role: kv values saturate at the bit
// size's maximum and still report ok (the old
// strconv-and-ignore-the-error semantics, where ParseUint's ErrRange
// value was kept), while header fields treat overflow as an error,
// exactly as the old explicit ParseUint checks did.
func parseUintDec(b []byte, bits int, saturate bool) (uint64, bool) {
	max := uint64(1)<<bits - 1
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (max-d)/10 {
			if saturate {
				return max, true
			}
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func parseUintSat(b []byte, bits int) (uint64, bool) { return parseUintDec(b, bits, true) }

func parseUintStrict(b []byte, bits int) (uint64, bool) { return parseUintDec(b, bits, false) }

// parseHexStrict parses a hex header field; overflow is an error.
func parseHexStrict(b []byte, bits int) (uint64, bool) {
	max := uint64(1)<<bits - 1
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		if v > max>>4 {
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
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
// zeroed (fresh, pooled via NewRecord, or reset to Record{}): optional
// kv fields are assigned only when present, so a reused dirty Record
// would keep stale values. No reference into line is retained: handles
// and procedure names are interned, and filename fields are copied. On
// the hot path — a record with no filename — parsing performs no
// allocation.
func UnmarshalRecordBytes(line []byte, r *Record) error {
	// The 8 header fields plus at least one kv field are mandatory; a
	// field that is missing outright surfaces as the short-record
	// error (the total count is recomputed only on that cold path).
	pos := 0
	short := func() error {
		return fmt.Errorf("core: short record (%d fields)", countFields(line))
	}
	f, ok := nextField(line, &pos)
	if !ok {
		return short()
	}
	var tok bool
	if r.Time, tok = parseTime(f); !tok {
		return fmt.Errorf("core: bad time %q", f)
	}
	if f, ok = nextField(line, &pos); !ok {
		return short()
	}
	if len(f) != 1 || (f[0] != KindCall && f[0] != KindReply) {
		return fmt.Errorf("core: bad kind %q", f)
	}
	r.Kind = f[0]
	if f, ok = nextField(line, &pos); !ok {
		return short()
	}
	dot := -1
	for i, c := range f {
		if c == '.' {
			dot = i
			break
		}
	}
	if dot < 0 {
		return fmt.Errorf("core: bad client %q", f)
	}
	host, port := f[:dot], f[dot+1:]
	v, tok := parseHexStrict(host, 32)
	if !tok {
		return fmt.Errorf("core: bad client ip %q", host)
	}
	r.Client = uint32(v)
	if v, tok = parseUintStrict(port, 16); !tok {
		return fmt.Errorf("core: bad client port %q", port)
	}
	r.Port = uint16(v)
	if f, ok = nextField(line, &pos); !ok {
		return short()
	}
	if v, tok = parseHexStrict(f, 32); !tok {
		return fmt.Errorf("core: bad server ip %q", f)
	}
	r.Server = uint32(v)
	if f, ok = nextField(line, &pos); !ok {
		return short()
	}
	if len(f) != 1 {
		return fmt.Errorf("core: bad proto %q", f)
	}
	r.Proto = f[0]
	if f, ok = nextField(line, &pos); !ok {
		return short()
	}
	if v, tok = parseHexStrict(f, 32); !tok {
		return fmt.Errorf("core: bad xid %q", f)
	}
	r.XID = uint32(v)
	if f, ok = nextField(line, &pos); !ok {
		return short()
	}
	if v, tok = parseUintStrict(f, 32); !tok {
		return fmt.Errorf("core: bad version %q", f)
	}
	r.Version = uint32(v)
	if f, ok = nextField(line, &pos); !ok {
		return short()
	}
	// Interning is deferred to the end of the parse: a malformed line
	// must not register its (possibly garbage) proc token in the
	// process-global table, which holds at most 256 distinct names.
	procField := f

	for first := true; ; first = false {
		f, ok := nextField(line, &pos)
		if !ok {
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
		eq := -1
		for i, c := range f {
			if c == '=' {
				eq = i
				break
			}
		}
		if eq < 0 {
			continue
		}
		k, val := f[:eq], f[eq+1:]
		switch string(k) { // compiler avoids the conversion in a switch
		case "fh":
			r.FH = InternFHBytes(val)
		case "name":
			r.Name = unescapeBytes(val)
		case "fh2":
			r.FH2 = InternFHBytes(val)
		case "name2":
			r.Name2 = unescapeBytes(val)
		case "off":
			r.Offset, _ = parseUintSat(val, 64)
		case "count":
			c, _ := parseUintSat(val, 32)
			r.Count = uint32(c)
		case "stable":
			s, _ := parseUintSat(val, 32)
			r.Stable = uint32(s)
		case "setsize":
			r.SetSize, _ = parseUintSat(val, 64)
			r.HasSet = true
		case "uid":
			u, _ := parseUintSat(val, 32)
			r.UID = uint32(u)
		case "gid":
			g, _ := parseUintSat(val, 32)
			r.GID = uint32(g)
		case "status":
			s, _ := parseUintSat(val, 32)
			r.Status = uint32(s)
		case "rcount":
			c, _ := parseUintSat(val, 32)
			r.RCount = uint32(c)
		case "size":
			r.Size, _ = parseUintSat(val, 64)
		case "fileid":
			r.FileID, _ = parseUintSat(val, 64)
		case "mtime":
			r.Mtime, _ = parseTime(val)
		case "presize":
			r.PreSize, _ = parseUintSat(val, 64)
			r.HasPre = true
		case "newfh":
			r.NewFH = InternFHBytes(val)
		case "eof":
			r.EOF = len(val) == 1 && val[0] == '1'
		}
	}
}

// UnmarshalRecord parses one trace line.
func UnmarshalRecord(line string) (*Record, error) {
	r := NewRecord()
	if err := UnmarshalRecordBytes([]byte(line), r); err != nil {
		FreeRecord(r)
		return nil, err
	}
	return r, nil
}
