package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cutgolden"
)

// spelledRecord renders a Record with its interned handles and
// procedure as their spellings, so a golden does not depend on the order
// in which a test process interned them.
type spelledRecord struct {
	*Record
	Proc, FH, FH2, NewFH string
}

// TestDecodeRecordTruncationGolden pins what decodeRecord returns for
// each prefix of three fully populated record payloads, and for each
// with trailing bytes: the decoded record, or the first error. Delete
// testdata/truncation.golden and rerun to regenerate it.
func TestDecodeRecordTruncationGolden(t *testing.T) {
	all := func(r *Record) *Record {
		r.Client, r.Port, r.Server, r.XID = 0x0a000005, 801, 0x0a000001, 0xa2f3
		r.UID, r.GID = 501, 100
		r.FH, r.FH2, r.NewFH = InternFH("0000000000000007"), InternFH("00000000000000aa"), InternFH("00000000000000ff")
		r.Name, r.Name2 = "inbox", "inbox.lock"
		r.Offset, r.Count, r.Stable = 8192, 4096, 2
		r.SetSize, r.HasSet = 1<<20, true
		r.Status, r.RCount, r.Size, r.FileID = 2, 4000, 2<<20, 7
		r.Mtime, r.PreSize, r.HasPre, r.EOF = 1003679999.25, 1<<19, true, true
		return r
	}
	call := all(&Record{Time: 1003680000.004742, Kind: KindCall, Proto: ProtoUDP, Version: 3, Proc: MustProc("write")})
	reply := all(&Record{Time: 0.5, Kind: KindReply, Proto: ProtoTCP, Version: 2, Proc: MustProc("rename")})
	wide := all(&Record{Time: -1.25, Kind: KindReply, Proto: ProtoTCP, Version: math.MaxUint32, Proc: MustProc("readdirplus")})
	wide.Client, wide.Port, wide.Server, wide.XID = math.MaxUint32, math.MaxUint16, math.MaxUint32, math.MaxUint32
	wide.Offset, wide.SetSize, wide.Size, wide.FileID, wide.PreSize = math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64
	wide.Name = strings.Repeat("n", 200)

	var b strings.Builder
	for _, s := range []struct {
		name string
		rec  *Record
	}{{"call", call}, {"reply", reply}, {"wide", wide}} {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf)
		if err := w.Write(s.rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		framed := buf.Bytes()[len(binaryMagic):]
		n, k := binary.Uvarint(framed)
		payload := framed[k : k+int(n)]
		cutgolden.Render(&b, s.name, payload, func(p []byte) (any, error) {
			var last int64
			r := &Record{}
			if err := decodeRecord(p, &last, r); err != nil {
				return nil, err
			}
			return spelledRecord{r, r.Proc.String(), r.FH.String(), r.FH2.String(), r.NewFH.String()}, nil
		})
	}
	cutgolden.Check(t, filepath.Join("testdata", "truncation.golden"), b.String())
}
