package nfs

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/xdr"
)

// TestRecordBuilders pins the fields CallRecord and ReplyRecord map
// where the two versions differ: v2 WRITE carries its data, not a count,
// and is always synchronous; SETATTR and CREATE carry a truncation
// target; only v3 replies carry the wcc pre-operation size.
func TestRecordBuilders(t *testing.T) {
	size0, size100 := uint64(0), uint64(100)
	attr := &Fattr{Type: TypeReg, Mode: 0644, Nlink: 1, Size: 5000, FileID: 77,
		Mtime: Time{Sec: 2000, Nsec: 250000}}
	mtime := attr.Mtime.Seconds()
	dir, file := MakeFH(1), MakeFH(7)
	for _, tc := range []struct {
		name          string
		version, proc uint32
		reply         bool
		body          any
		want          core.Record
	}{
		{"v2 write call", V2, V2Write, false,
			&WriteArgs2{FH: file, Offset: 4096, Data: bytes.Repeat([]byte{1}, 5000)},
			core.Record{Proc: core.MustProc("write"), FH: file.Intern(), Offset: 4096, Count: 5000, Stable: FileSync}},
		{"v2 setattr call", V2, V2Setattr, false,
			&SetattrArgs2{FH: file, Attr: Sattr{Size: &size100}},
			core.Record{Proc: core.MustProc("setattr"), FH: file.Intern(), SetSize: 100, HasSet: true}},
		{"v2 setattr call without size", V2, V2Setattr, false,
			&SetattrArgs2{FH: file},
			core.Record{Proc: core.MustProc("setattr"), FH: file.Intern()}},
		{"v2 create call", V2, V2Create, false,
			&CreateArgs2{Where: DirOpArgs3{Dir: dir, Name: "inbox.lock"}, Attr: Sattr{Size: &size0}},
			core.Record{Proc: core.MustProc("create"), FH: dir.Intern(), Name: "inbox.lock", HasSet: true}},
		{"v3 create call", V3, V3Create, false,
			&CreateArgs3{Where: DirOpArgs3{Dir: dir, Name: "mbox"}, Attr: Sattr{Size: &size100}},
			core.Record{Proc: core.MustProc("create"), FH: dir.Intern(), Name: "mbox", SetSize: 100, HasSet: true}},
		{"v3 rename call", V3, V3Rename, false,
			&RenameArgs3{From: DirOpArgs3{Dir: dir, Name: "a"}, To: DirOpArgs3{Dir: file, Name: "b"}},
			core.Record{Proc: core.MustProc("rename"), FH: dir.Intern(), Name: "a", FH2: file.Intern(), Name2: "b"}},
		{"v2 write reply", V2, V2Write, true,
			&AttrStatRes2{Status: OK, Attr: attr},
			core.Record{Proc: core.MustProc("write"), Size: 5000, FileID: 77, Mtime: mtime}},
		{"v2 create reply", V2, V2Create, true,
			&DirOpRes2{Status: OK, FH: file, Attr: attr},
			core.Record{Proc: core.MustProc("create"), NewFH: file.Intern(), Size: 5000, FileID: 77, Mtime: mtime}},
		{"v2 read reply", V2, V2Read, true,
			&ReadRes2{Status: OK, Attr: attr, Data: make([]byte, 300)},
			core.Record{Proc: core.MustProc("read"), RCount: 300, Size: 5000, FileID: 77, Mtime: mtime}},
		{"v3 write reply", V3, V3Write, true,
			&WriteRes3{Status: OK, Wcc: &WccData{Before: &WccAttr{Size: 10}, After: attr}, Count: 4096},
			core.Record{Proc: core.MustProc("write"), RCount: 4096, Size: 5000, FileID: 77, Mtime: mtime,
				PreSize: 10, HasPre: true}},
		{"v3 setattr reply", V3, V3Setattr, true,
			&SetattrRes3{Status: OK, Wcc: &WccData{Before: &WccAttr{Size: 0}, After: attr}},
			core.Record{Proc: core.MustProc("setattr"), Size: 5000, FileID: 77, Mtime: mtime, HasPre: true}},
		{"v3 setattr error reply", V3, V3Setattr, true,
			&SetattrRes3{Status: ErrStale},
			core.Record{Proc: core.MustProc("setattr"), Status: ErrStale}},
	} {
		e := xdr.NewEncoder(256)
		var got core.Record
		var err error
		var dec Decoder
		if tc.reply {
			if err = EncodeRes(tc.version, e, tc.proc, tc.body); err == nil {
				err = dec.ReplyRecord(&got, tc.version, tc.proc, e.Bytes())
			}
		} else {
			if err = EncodeArgs(tc.version, e, tc.proc, tc.body); err == nil {
				err = dec.CallRecord(&got, tc.version, tc.proc, e.Bytes())
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestInternLongHandle covers FH.Intern's string path for handles over
// the 64 bytes its stack buffer holds, which only a MOUNT reply from a
// hostile capture can carry.
func TestInternLongHandle(t *testing.T) {
	for _, n := range []int{0, 8, V3MaxFHSize, V3MaxFHSize + 1, 200} {
		fh := make(FH, n)
		for i := range fh {
			fh[i] = byte(i*7 + n)
		}
		if got, want := fh.Intern(), core.InternFH(hex.EncodeToString(fh)); got != want {
			t.Errorf("%d-byte handle: Intern %v, InternFH %v", n, got, want)
		}
		if got := fh.Intern().String(); got != fh.String() {
			t.Errorf("%d-byte handle interned as %q", n, got)
		}
	}
}

// TestRecordBuildersRejectLeaveRecord checks that a body the parsers
// reject leaves the record as the caller filled it.
func TestRecordBuildersRejectLeaveRecord(t *testing.T) {
	env := core.Record{Time: 1, Kind: core.KindCall, XID: 9, Version: V3}
	rec := env
	var dec Decoder
	if dec.CallRecord(&rec, V3, V3Read, []byte{0, 0, 0}) == nil || rec != env {
		t.Fatalf("truncated READ call: %+v", rec)
	}
	if dec.ReplyRecord(&rec, V3, V3Read, []byte{0, 0}) == nil || rec != env {
		t.Fatalf("truncated READ reply: %+v", rec)
	}
	if dec.CallRecord(&rec, 4, V3Null, nil) == nil || rec != env {
		t.Fatalf("NFSv4 call: %+v", rec)
	}
}
