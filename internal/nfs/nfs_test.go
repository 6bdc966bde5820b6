package nfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

func TestProcNames(t *testing.T) {
	cases := []struct {
		version, proc uint32
		want          string
	}{
		{V3, V3Getattr, "getattr"},
		{V3, V3Readdirplus, "readdirplus"},
		{V3, V3Commit, "commit"},
		{V2, V2Statfs, "statfs"},
		{V2, V2Writecache, "writecache"},
		{V3, 99, "proc-99"},
		{7, 1, "proc-1"},
	}
	for _, c := range cases {
		if got := ProcName(c.version, c.proc); got != c.want {
			t.Errorf("ProcName(%d,%d) = %q, want %q", c.version, c.proc, got, c.want)
		}
	}
}

func TestProcByName(t *testing.T) {
	for proc := uint32(0); proc < V3NumProcs; proc++ {
		name := ProcName(V3, proc)
		got, ok := ProcByName(name)
		if !ok || got != proc {
			t.Errorf("ProcByName(%q) = %d,%v, want %d", name, got, ok, proc)
		}
	}
	if _, ok := ProcByName("bogus"); ok {
		t.Error("ProcByName accepted bogus name")
	}
}

func TestFHRoundTrip(t *testing.T) {
	f := func(id uint64) bool {
		fh := MakeFH(id)
		got, ok := fh.FileID()
		return ok && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFHEqualAndKey(t *testing.T) {
	a, b := MakeFH(1), MakeFH(1)
	if !a.Equal(b) {
		t.Error("equal handles not Equal")
	}
	if a.Equal(MakeFH(2)) {
		t.Error("unequal handles Equal")
	}
	if a.Equal(a[:4]) {
		t.Error("different-length handles Equal")
	}
	if a.Key() != b.Key() {
		t.Error("Key mismatch for equal handles")
	}
	if a.String() != "0000000000000001" {
		t.Errorf("String = %q", a.String())
	}
}

func TestTimeConversion(t *testing.T) {
	tm := TimeFromSeconds(1003680000.5)
	if tm.Sec != 1003680000 {
		t.Errorf("sec = %d", tm.Sec)
	}
	if got := tm.Seconds(); got < 1003680000.49 || got > 1003680000.51 {
		t.Errorf("seconds = %v", got)
	}
}

func sampleAttr() *Fattr {
	return &Fattr{
		Type: TypeReg, Mode: 0644, Nlink: 1, UID: 501, GID: 100,
		Size: 2 << 20, Used: 2 << 20, FSID: 1, FileID: 4242,
		Atime: Time{Sec: 1000, Nsec: 500},
		Mtime: Time{Sec: 2000, Nsec: 250},
		Ctime: Time{Sec: 3000, Nsec: 125},
	}
}

func TestFattr3RoundTrip(t *testing.T) {
	a := sampleAttr()
	e := xdr.NewEncoder(128)
	EncodeFattr3(e, a)
	d := xdr.NewDecoder(e.Bytes())
	got := readFattr3(d, new(Decoder))
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if *got != *a {
		t.Fatalf("got %+v, want %+v", got, a)
	}
}

func TestFattr2RoundTrip(t *testing.T) {
	a := sampleAttr()
	a.Atime.Nsec = 500000 // v2 keeps only microseconds
	a.Mtime.Nsec = 250000
	a.Ctime.Nsec = 125000
	e := xdr.NewEncoder(128)
	EncodeFattr2(e, a)
	d := xdr.NewDecoder(e.Bytes())
	got := readFattr2(d, new(Decoder))
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Size != a.Size || got.FileID != a.FileID || got.UID != a.UID ||
		got.Mtime != a.Mtime || got.Type != a.Type {
		t.Fatalf("got %+v, want %+v", got, a)
	}
}

func v3ArgsFor(proc uint32) any {
	fh := MakeFH(7)
	dir := MakeFH(2)
	size := uint64(0)
	switch proc {
	case V3Null:
		return nil
	case V3Getattr, V3Readlink, V3Fsstat, V3Fsinfo, V3Pathconf:
		return &GetattrArgs3{FH: fh}
	case V3Setattr:
		return &SetattrArgs3{FH: fh, Attr: Sattr{Size: &size}}
	case V3Lookup, V3Remove, V3Rmdir:
		return &DirOpArgs3{Dir: dir, Name: "mbox"}
	case V3Access:
		return &AccessArgs3{FH: fh, Access: 0x3F}
	case V3Read:
		return &ReadArgs3{FH: fh, Offset: 8192, Count: 8192}
	case V3Write:
		return &WriteArgs3{FH: fh, Offset: 16384, Count: 4, Stable: Unstable, Data: []byte{1, 2, 3, 4}}
	case V3Create:
		return &CreateArgs3{Where: DirOpArgs3{Dir: dir, Name: "newfile"}}
	case V3Mkdir:
		return &MkdirArgs3{Where: DirOpArgs3{Dir: dir, Name: "newdir"}}
	case V3Symlink:
		return &SymlinkArgs3{Where: DirOpArgs3{Dir: dir, Name: "sl"}, Target: "target"}
	case V3Mknod:
		return nil // not generated by the simulators
	case V3Rename:
		return &RenameArgs3{From: DirOpArgs3{Dir: dir, Name: "a"}, To: DirOpArgs3{Dir: dir, Name: "b"}}
	case V3Link:
		return &LinkArgs3{FH: fh, To: DirOpArgs3{Dir: dir, Name: "ln"}}
	case V3Readdir, V3Readdirplus:
		return &ReaddirArgs3{Dir: dir, Cookie: 3, MaxCount: 4096}
	case V3Commit:
		return &CommitArgs3{FH: fh, Offset: 0, Count: 65536}
	}
	return nil
}

func TestV3ArgsRoundTripAllProcs(t *testing.T) {
	for proc := uint32(0); proc < V3NumProcs; proc++ {
		if proc == V3Mknod {
			continue // not generated by simulators
		}
		args := v3ArgsFor(proc)
		e := xdr.NewEncoder(256)
		if err := EncodeArgs3(e, proc, args); err != nil {
			t.Fatalf("%s: encode: %v", ProcName(V3, proc), err)
		}
		got, err := DecodeArgs3(proc, e.Bytes())
		if err != nil {
			t.Fatalf("%s: decode: %v", ProcName(V3, proc), err)
		}
		if (args == nil) != (got == nil) {
			t.Fatalf("%s: nil mismatch", ProcName(V3, proc))
		}
		// Spot-check semantic parse on the same bytes.
		info, err := ParseCall(V3, proc, e.Bytes())
		if err != nil {
			t.Fatalf("%s: semantic: %v", ProcName(V3, proc), err)
		}
		if info.Name != ProcName(V3, proc) {
			t.Fatalf("%s: semantic name %q", ProcName(V3, proc), info.Name)
		}
	}
}

func TestV3ReadArgsPreserved(t *testing.T) {
	e := xdr.NewEncoder(64)
	if err := EncodeArgs3(e, V3Read, &ReadArgs3{FH: MakeFH(9), Offset: 1 << 33, Count: 32768}); err != nil {
		t.Fatal(err)
	}
	info, err := ParseCall(V3, V3Read, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Offset != 1<<33 || info.Count != 32768 {
		t.Fatalf("offset=%d count=%d", info.Offset, info.Count)
	}
	id, ok := info.FH.FileID()
	if !ok || id != 9 {
		t.Fatalf("fh id=%d ok=%v", id, ok)
	}
}

func TestV3WriteDataRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte{0xEE}, 8192)
	e := xdr.NewEncoder(9000)
	if err := EncodeArgs3(e, V3Write, &WriteArgs3{FH: MakeFH(1), Offset: 0, Count: 8192, Stable: FileSync, Data: data}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArgs3(V3Write, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	w := got.(*WriteArgs3)
	if !bytes.Equal(w.Data, data) || w.Stable != FileSync {
		t.Fatalf("write data mismatch: %d bytes stable=%d", len(w.Data), w.Stable)
	}
}

func v3ResFor(proc uint32) any {
	attr := sampleAttr()
	fh := MakeFH(55)
	switch proc {
	case V3Null:
		return nil
	case V3Getattr, V3Fsinfo, V3Pathconf:
		return &GetattrRes3{Status: OK, Attr: attr}
	case V3Setattr:
		return &SetattrRes3{Status: OK, Wcc: &WccData{After: attr}}
	case V3Lookup:
		return &LookupRes3{Status: OK, FH: fh, Attr: attr, DirAttr: attr}
	case V3Access:
		return &AccessRes3{Status: OK, Attr: attr, Access: 0x3F}
	case V3Readlink:
		return &LookupRes3{Status: OK, Attr: attr}
	case V3Read:
		return &ReadRes3{Status: OK, Attr: attr, Count: 4, EOF: true, Data: []byte{1, 2, 3, 4}}
	case V3Write:
		return &WriteRes3{Status: OK, Count: 8192, Committed: FileSync,
			Wcc: &WccData{Before: &WccAttr{Size: 100}, After: attr}}
	case V3Create, V3Mkdir, V3Symlink, V3Mknod:
		return &CreateRes3{Status: OK, FH: fh, Attr: attr}
	case V3Remove, V3Rmdir:
		return &RemoveRes3{Status: OK, Wcc: &WccData{After: attr}}
	case V3Rename:
		return &RenameRes3{Status: OK}
	case V3Link:
		return &RemoveRes3{Status: OK}
	case V3Readdir, V3Readdirplus:
		return &ReaddirRes3{Status: OK, DirAttr: attr, EOF: true,
			Entries: []DirEntry{{FileID: 1, Name: ".", Cookie: 1}, {FileID: 9, Name: "mbox", Cookie: 2}}}
	case V3Fsstat:
		return &FsstatRes3{Status: OK, Attr: attr, Tbytes: 1 << 35, Fbytes: 1 << 34, Abytes: 1 << 34}
	case V3Commit:
		return &CommitRes3{Status: OK, Wcc: &WccData{After: attr}}
	}
	return nil
}

func TestV3ResRoundTripAllProcs(t *testing.T) {
	for proc := uint32(0); proc < V3NumProcs; proc++ {
		if proc == V3Mknod {
			continue
		}
		res := v3ResFor(proc)
		e := xdr.NewEncoder(512)
		if err := EncodeRes3(e, proc, res); err != nil {
			t.Fatalf("%s: encode: %v", ProcName(V3, proc), err)
		}
		if _, err := DecodeRes3(proc, e.Bytes()); err != nil {
			t.Fatalf("%s: decode: %v", ProcName(V3, proc), err)
		}
		info, err := ParseReply(V3, proc, e.Bytes())
		if err != nil {
			t.Fatalf("%s: semantic: %v", ProcName(V3, proc), err)
		}
		if proc != V3Null && info.Status != OK {
			t.Fatalf("%s: status %d", ProcName(V3, proc), info.Status)
		}
	}
}

func TestV3LookupReplyCarriesNewFH(t *testing.T) {
	e := xdr.NewEncoder(256)
	if err := EncodeRes3(e, V3Lookup, &LookupRes3{Status: OK, FH: MakeFH(77), Attr: sampleAttr()}); err != nil {
		t.Fatal(err)
	}
	info, err := ParseReply(V3, V3Lookup, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	id, ok := info.NewFH.FileID()
	if !ok || id != 77 {
		t.Fatalf("NewFH id=%d ok=%v", id, ok)
	}
	if info.Attr == nil || info.Attr.Size != sampleAttr().Size {
		t.Fatal("lookup attrs missing")
	}
}

func TestV3ErrorReply(t *testing.T) {
	e := xdr.NewEncoder(64)
	if err := EncodeRes3(e, V3Lookup, &LookupRes3{Status: ErrNoEnt, DirAttr: sampleAttr()}); err != nil {
		t.Fatal(err)
	}
	info, err := ParseReply(V3, V3Lookup, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != ErrNoEnt || info.NewFH != nil {
		t.Fatalf("status=%d fh=%v", info.Status, info.NewFH)
	}
}

func TestV3WriteReplyWcc(t *testing.T) {
	e := xdr.NewEncoder(256)
	res := &WriteRes3{Status: OK, Count: 4096, Committed: Unstable,
		Wcc: &WccData{Before: &WccAttr{Size: 1000, Mtime: Time{Sec: 5}}, After: sampleAttr()}}
	if err := EncodeRes3(e, V3Write, res); err != nil {
		t.Fatal(err)
	}
	info, err := ParseReply(V3, V3Write, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Count != 4096 || info.Pre == nil || info.Pre.Size != 1000 || info.Attr == nil {
		t.Fatalf("wcc lost: %+v", info)
	}
}

func v2ArgsFor(proc uint32) any {
	fh := MakeFH(7)
	dir := MakeFH(2)
	switch proc {
	case V2Null, V2Root, V2Writecache:
		return nil
	case V2Getattr, V2Readlink, V2Statfs:
		return &GetattrArgs3{FH: fh}
	case V2Setattr:
		size := uint64(0)
		return &SetattrArgs2{FH: fh, Attr: Sattr{Size: &size}}
	case V2Lookup, V2Remove, V2Rmdir:
		return &DirOpArgs3{Dir: dir, Name: "f.c"}
	case V2Read:
		return &ReadArgs2{FH: fh, Offset: 4096, Count: 8192, TotalCount: 8192}
	case V2Write:
		return &WriteArgs2{FH: fh, Offset: 8192, Data: []byte{5, 6, 7}}
	case V2Create, V2Mkdir:
		return &CreateArgs2{Where: DirOpArgs3{Dir: dir, Name: "nf"}}
	case V2Rename:
		return &RenameArgs3{From: DirOpArgs3{Dir: dir, Name: "x"}, To: DirOpArgs3{Dir: dir, Name: "y"}}
	case V2Link:
		return &LinkArgs3{FH: fh, To: DirOpArgs3{Dir: dir, Name: "l"}}
	case V2Symlink:
		return &SymlinkArgs3{Where: DirOpArgs3{Dir: dir, Name: "s"}, Target: "t"}
	case V2Readdir:
		return &ReaddirArgs2{Dir: dir, Cookie: 0, Count: 1024}
	}
	return nil
}

func TestV2ArgsRoundTripAllProcs(t *testing.T) {
	for proc := uint32(0); proc < V2NumProcs; proc++ {
		args := v2ArgsFor(proc)
		e := xdr.NewEncoder(256)
		if err := EncodeArgs2(e, proc, args); err != nil {
			t.Fatalf("%s: encode: %v", ProcName(V2, proc), err)
		}
		if _, err := DecodeArgs(V2, proc, e.Bytes()); err != nil {
			t.Fatalf("%s: decode: %v", ProcName(V2, proc), err)
		}
		if _, err := ParseCall(V2, proc, e.Bytes()); err != nil {
			t.Fatalf("%s: semantic: %v", ProcName(V2, proc), err)
		}
	}
}

func v2ResFor(proc uint32) any {
	attr := sampleAttr()
	attr.Atime.Nsec = 0
	attr.Mtime.Nsec = 0
	attr.Ctime.Nsec = 0
	fh := MakeFH(55)
	switch proc {
	case V2Null, V2Root, V2Writecache:
		return nil
	case V2Getattr, V2Setattr, V2Write:
		return &AttrStatRes2{Status: OK, Attr: attr}
	case V2Lookup, V2Create, V2Mkdir:
		return &DirOpRes2{Status: OK, FH: fh, Attr: attr}
	case V2Readlink:
		return &StatusRes2{Status: OK}
	case V2Read:
		return &ReadRes2{Status: OK, Attr: attr, Data: []byte{1, 2}}
	case V2Remove, V2Rename, V2Link, V2Symlink, V2Rmdir:
		return &StatusRes2{Status: OK}
	case V2Readdir:
		return &ReaddirRes2{Status: OK, EOF: true, Entries: []DirEntry{{FileID: 3, Name: "e", Cookie: 1}}}
	case V2Statfs:
		return &StatfsRes2{Status: OK, Tsize: 8192, Bsize: 8192, Blocks: 1 << 20, Bfree: 1 << 19, Bavail: 1 << 19}
	}
	return nil
}

func TestV2ResRoundTripAllProcs(t *testing.T) {
	for proc := uint32(0); proc < V2NumProcs; proc++ {
		res := v2ResFor(proc)
		e := xdr.NewEncoder(512)
		if err := EncodeRes2(e, proc, res); err != nil {
			t.Fatalf("%s: encode: %v", ProcName(V2, proc), err)
		}
		if _, err := DecodeRes(V2, proc, e.Bytes()); err != nil {
			t.Fatalf("%s: decode: %v", ProcName(V2, proc), err)
		}
		if _, err := ParseReply(V2, proc, e.Bytes()); err != nil {
			t.Fatalf("%s: semantic: %v", ProcName(V2, proc), err)
		}
	}
}

func TestV2FHPaddingRoundTrip(t *testing.T) {
	// An 8-byte simulator handle must survive the 32-byte v2 wire form.
	e := xdr.NewEncoder(64)
	if err := EncodeArgs2(e, V2Getattr, &GetattrArgs3{FH: MakeFH(0xDEAD)}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeArgs(V2, V2Getattr, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fh := got.(*GetattrArgs3).FH
	id, ok := fh.FileID()
	if !ok || id != 0xDEAD {
		t.Fatalf("fh=%v id=%d ok=%v", fh, id, ok)
	}
}

func TestSemanticRenameBothSides(t *testing.T) {
	e := xdr.NewEncoder(256)
	args := &RenameArgs3{
		From: DirOpArgs3{Dir: MakeFH(10), Name: "old"},
		To:   DirOpArgs3{Dir: MakeFH(20), Name: "new"},
	}
	if err := EncodeArgs3(e, V3Rename, args); err != nil {
		t.Fatal(err)
	}
	info, err := ParseCall(V3, V3Rename, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.FName != "old" || info.FName2 != "new" {
		t.Fatalf("names: %q %q", info.FName, info.FName2)
	}
	id1, _ := info.FH.FileID()
	id2, _ := info.FH2.FileID()
	if id1 != 10 || id2 != 20 {
		t.Fatalf("dirs: %d %d", id1, id2)
	}
}

func TestSattr3RoundTrip(t *testing.T) {
	mode := uint32(0600)
	size := uint64(12345)
	at := Time{Sec: 9, Nsec: 100}
	s := &Sattr{Mode: &mode, Size: &size, Atime: &at}
	e := xdr.NewEncoder(128)
	encodeSattr3(e, s)
	d := xdr.NewDecoder(e.Bytes())
	got := decodeSattr3(d, new(Decoder))
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if got.Mode == nil || *got.Mode != mode {
		t.Error("mode lost")
	}
	if got.UID != nil || got.GID != nil {
		t.Error("phantom uid/gid")
	}
	if got.Size == nil || *got.Size != size {
		t.Error("size lost")
	}
	if got.Atime == nil || got.Atime.Sec != 9 {
		t.Error("atime lost")
	}
	if got.Mtime != nil {
		t.Error("phantom mtime")
	}
}

func TestReaddirEntriesRoundTrip(t *testing.T) {
	entries := []DirEntry{
		{FileID: 2, Name: ".", Cookie: 1},
		{FileID: 1, Name: "..", Cookie: 2},
		{FileID: 100, Name: "inbox.lock", Cookie: 3},
		{FileID: 101, Name: ".pinerc", Cookie: 4},
	}
	e := xdr.NewEncoder(512)
	if err := EncodeRes3(e, V3Readdir, &ReaddirRes3{Status: OK, Entries: entries, EOF: true}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRes3(V3Readdir, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r := got.(*ReaddirRes3)
	if len(r.Entries) != 4 || !r.EOF {
		t.Fatalf("entries=%d eof=%v", len(r.Entries), r.EOF)
	}
	for i, ent := range r.Entries {
		if ent != entries[i] {
			t.Errorf("entry %d: %+v want %+v", i, ent, entries[i])
		}
	}
}
