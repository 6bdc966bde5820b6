package core

// The text tokenizer as it was before the one-pass scanner, kept
// verbatim (helpers renamed) as the reference the scanner is held to:
// FuzzTextTokenizerOracle and TestTokenizerOracleOnTraces require equal
// records and equal error strings on every line. It shares
// unescapeBytes, parseTime and the intern tables with the package.

import (
	"fmt"
	"testing"
)

// TokenizerOracleDiff parses line with UnmarshalRecordBytes and with the
// oracle. It describes the first difference — the error strings, or the
// records when both parse — and returns "" when there is none.
func TokenizerOracleDiff(line []byte) string {
	var got, want Record
	gotErr := UnmarshalRecordBytes(line, &got)
	wantErr := oracleUnmarshalRecordBytes(line, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("%q: error %v, oracle %v", line, gotErr, wantErr)
	}
	if gotErr == nil && got != want {
		return fmt.Sprintf("%q:\n got %+v\nwant %+v", line, got, want)
	}
	return ""
}

// FuzzTextTokenizerOracle is the differential target of the text
// tokenizer: on any line it must return what the oracle returns.
func FuzzTextTokenizerOracle(f *testing.F) {
	for _, line := range textRecordSeeds() {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if diff := TokenizerOracleDiff([]byte(line)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// oracleIsFieldSep reports a byte that separates fields within a line.
func oracleIsFieldSep(c byte) bool {
	return c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r'
}

// oracleNextField returns the next whitespace-delimited field of line
// starting at *pos, advancing *pos past it; ok is false at end of line.
func oracleNextField(line []byte, pos *int) (field []byte, ok bool) {
	i := *pos
	for i < len(line) && oracleIsFieldSep(line[i]) {
		i++
	}
	if i >= len(line) {
		*pos = i
		return nil, false
	}
	start := i
	for i < len(line) && !oracleIsFieldSep(line[i]) {
		i++
	}
	*pos = i
	return line[start:i], true
}

func oracleCountFields(line []byte) int {
	n, pos := 0, 0
	for {
		if _, ok := oracleNextField(line, &pos); !ok {
			return n
		}
		n++
	}
}

// oracleParseUintDec parses a decimal field. Syntax errors yield (0, false).
// Overflow depends on the caller's role: kv values saturate at the bit
// size's maximum and still report ok (the old
// strconv-and-ignore-the-error semantics, where ParseUint's ErrRange
// value was kept), while header fields treat overflow as an error,
// exactly as the old explicit ParseUint checks did.
func oracleParseUintDec(b []byte, bits int, saturate bool) (uint64, bool) {
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

func oracleParseUintSat(b []byte, bits int) (uint64, bool) { return oracleParseUintDec(b, bits, true) }

func oracleParseUintStrict(b []byte, bits int) (uint64, bool) {
	return oracleParseUintDec(b, bits, false)
}

// oracleParseHexStrict parses a hex header field; overflow is an error.
func oracleParseHexStrict(b []byte, bits int) (uint64, bool) {
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

// oracleUnmarshalRecordBytes parses one trace line into r, which must be
// zeroed (fresh, recycled, or reset to Record{}): optional
// kv fields are assigned only when present, so a reused dirty Record
// would keep stale values. No reference into line is retained: handles
// and procedure names are interned, and filename fields are copied. On
// the hot path — a record with no filename — parsing performs no
// allocation.
func oracleUnmarshalRecordBytes(line []byte, r *Record) error {
	// The 8 header fields plus at least one kv field are mandatory; a
	// field that is missing outright surfaces as the short-record
	// error (the total count is recomputed only on that cold path).
	pos := 0
	short := func() error {
		return fmt.Errorf("core: short record (%d fields)", oracleCountFields(line))
	}
	f, ok := oracleNextField(line, &pos)
	if !ok {
		return short()
	}
	var tok bool
	if r.Time, tok = parseTime(f); !tok {
		return fmt.Errorf("core: bad time %q", f)
	}
	if f, ok = oracleNextField(line, &pos); !ok {
		return short()
	}
	if len(f) != 1 || (f[0] != KindCall && f[0] != KindReply) {
		return fmt.Errorf("core: bad kind %q", f)
	}
	r.Kind = f[0]
	if f, ok = oracleNextField(line, &pos); !ok {
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
	v, tok := oracleParseHexStrict(host, 32)
	if !tok {
		return fmt.Errorf("core: bad client ip %q", host)
	}
	r.Client = uint32(v)
	if v, tok = oracleParseUintStrict(port, 16); !tok {
		return fmt.Errorf("core: bad client port %q", port)
	}
	r.Port = uint16(v)
	if f, ok = oracleNextField(line, &pos); !ok {
		return short()
	}
	if v, tok = oracleParseHexStrict(f, 32); !tok {
		return fmt.Errorf("core: bad server ip %q", f)
	}
	r.Server = uint32(v)
	if f, ok = oracleNextField(line, &pos); !ok {
		return short()
	}
	if len(f) != 1 {
		return fmt.Errorf("core: bad proto %q", f)
	}
	r.Proto = f[0]
	if f, ok = oracleNextField(line, &pos); !ok {
		return short()
	}
	if v, tok = oracleParseHexStrict(f, 32); !tok {
		return fmt.Errorf("core: bad xid %q", f)
	}
	r.XID = uint32(v)
	if f, ok = oracleNextField(line, &pos); !ok {
		return short()
	}
	if v, tok = oracleParseUintStrict(f, 32); !tok {
		return fmt.Errorf("core: bad version %q", f)
	}
	r.Version = uint32(v)
	if f, ok = oracleNextField(line, &pos); !ok {
		return short()
	}
	// Interning is deferred to the end of the parse: a malformed line
	// must not register its (possibly garbage) proc token in the
	// process-global table, which holds at most 256 distinct names.
	procField := f

	for first := true; ; first = false {
		f, ok := oracleNextField(line, &pos)
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
			r.Offset, _ = oracleParseUintSat(val, 64)
		case "count":
			c, _ := oracleParseUintSat(val, 32)
			r.Count = uint32(c)
		case "stable":
			s, _ := oracleParseUintSat(val, 32)
			r.Stable = uint32(s)
		case "setsize":
			r.SetSize, _ = oracleParseUintSat(val, 64)
			r.HasSet = true
		case "uid":
			u, _ := oracleParseUintSat(val, 32)
			r.UID = uint32(u)
		case "gid":
			g, _ := oracleParseUintSat(val, 32)
			r.GID = uint32(g)
		case "status":
			s, _ := oracleParseUintSat(val, 32)
			r.Status = uint32(s)
		case "rcount":
			c, _ := oracleParseUintSat(val, 32)
			r.RCount = uint32(c)
		case "size":
			r.Size, _ = oracleParseUintSat(val, 64)
		case "fileid":
			r.FileID, _ = oracleParseUintSat(val, 64)
		case "mtime":
			r.Mtime, _ = parseTime(val)
		case "presize":
			r.PreSize, _ = oracleParseUintSat(val, 64)
			r.HasPre = true
		case "newfh":
			r.NewFH = InternFHBytes(val)
		case "eof":
			r.EOF = len(val) == 1 && val[0] == '1'
		}
	}
}
