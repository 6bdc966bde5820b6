package client

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

func newRig(version uint32) (*Client, *SliceSink, *server.Server) {
	fs := vfs.New()
	now := 0.0
	fs.Clock = func() float64 { now += 0.0001; return now }
	srv := server.New(fs)
	sink := &SliceSink{}
	c := New(Config{IP: 0x0a000005, UID: 501, GID: 100, Version: version, Seed: 11},
		srv, 0x0a000001, sink)
	return c, sink, srv
}

func TestPoolSingleDaemonPreservesOrder(t *testing.T) {
	frac, _ := MeasureReordering(1, 5000, 0.0001, 1)
	if frac != 0 {
		t.Fatalf("1 nfsiod swapped %.2f%% of calls", frac*100)
	}
}

func TestPoolReorderingGrowsWithDaemons(t *testing.T) {
	f1, _ := MeasureReordering(1, 20000, 0.00005, 2)
	f4, _ := MeasureReordering(4, 20000, 0.00005, 2)
	f8, d8 := MeasureReordering(8, 20000, 0.00005, 2)
	if !(f1 < f4 && f4 <= f8+0.02) {
		t.Fatalf("reordering not increasing: %v %v %v", f1, f4, f8)
	}
	if f8 < 0.02 || f8 > 0.25 {
		t.Fatalf("8-daemon reordering %.1f%% outside the paper's regime", f8*100)
	}
	if d8 < 0.1 {
		t.Fatalf("max delay %.3fs; paper observed delays up to ~1s", d8)
	}
}

func TestRoundTripEmitsCallAndReply(t *testing.T) {
	c, sink, _ := newRig(nfs.V3)
	root := c.Server.FS.RootFH()
	fh, _ := c.Create(1.0, root, "mbox", false)
	if fh == nil {
		t.Fatal("create failed")
	}
	if len(sink.Records) != 2 {
		t.Fatalf("%d records", len(sink.Records))
	}
	call, reply := sink.Records[0], sink.Records[1]
	if call.Kind != core.KindCall || reply.Kind != core.KindReply {
		t.Fatalf("kinds: %c %c", call.Kind, reply.Kind)
	}
	if call.XID != reply.XID {
		t.Fatal("xid mismatch")
	}
	if call.Proc != core.MustProc("create") || call.Name != "mbox" {
		t.Fatalf("call: %+v", call)
	}
	if reply.NewFH == core.InternFH("") || reply.Status != 0 {
		t.Fatalf("reply: %+v", reply)
	}
	if reply.Time <= call.Time {
		t.Fatal("reply not after call")
	}
	if call.UID != 501 || call.GID != 100 {
		t.Fatalf("cred: %d/%d", call.UID, call.GID)
	}
}

func TestReadFileCacheAbsorption(t *testing.T) {
	c, sink, srv := newRig(nfs.V3)
	root := srv.FS.RootFH()
	// Another host writes the file; c has never seen it.
	w := New(Config{IP: 0x0a000007, UID: 0, GID: 0, Version: nfs.V3, Seed: 31},
		srv, 0x0a000001, sink)
	fh, rt := w.Create(1.0, root, "inbox", false)
	rt = w.WriteRange(rt, fh, 0, 64*1024)
	sink.Records = sink.Records[:0]

	// First read: full transfer.
	before := len(sink.Records)
	wire1, rt := c.ReadFile(rt+1, fh, 64*1024)
	if wire1 != 64*1024 {
		t.Fatalf("first read moved %d bytes", wire1)
	}
	readCalls := 0
	for _, r := range sink.Records[before:] {
		if r.Kind == core.KindCall && r.Proc == core.MustProc("read") {
			readCalls++
		}
	}
	if readCalls != 8 {
		t.Fatalf("%d read calls for 64k, want 8", readCalls)
	}

	// Second read within attr timeout: fully absorbed (no wire reads,
	// not even a getattr since attrs are fresh).
	before = len(sink.Records)
	wire2, rt := c.ReadFile(rt+1, fh, 64*1024)
	if wire2 != 0 {
		t.Fatalf("cached read moved %d bytes", wire2)
	}
	for _, r := range sink.Records[before:] {
		if r.Proc == core.MustProc("read") {
			t.Fatal("cached read hit the wire")
		}
	}

	// After the attr cache expires, a validation getattr goes out; the
	// data is still valid (mtime unchanged), so no reads.
	before = len(sink.Records)
	wire3, rt := c.ReadFile(rt+c.AttrTimeout+1, fh, 64*1024)
	if wire3 != 0 {
		t.Fatalf("validated read moved %d bytes", wire3)
	}
	sawGetattr := false
	for _, r := range sink.Records[before:] {
		if r.Kind == core.KindCall {
			if r.Proc == core.MustProc("getattr") {
				sawGetattr = true
			}
			if r.Proc == core.MustProc("read") {
				t.Fatal("valid cache re-read")
			}
		}
	}
	if !sawGetattr {
		t.Fatal("no validation getattr after timeout")
	}
	_ = rt
}

func TestMailboxInvalidationRereadsWholeFile(t *testing.T) {
	// The CAMPUS pathology (§6.1.2): delivery appends to the mailbox,
	// the file mtime changes, and the client re-reads the entire file.
	c, sink, srv := newRig(nfs.V3)
	root := srv.FS.RootFH()
	// The SMTP delivery host owns writes to the mailbox.
	d := New(Config{IP: 0x0a000006, UID: 0, GID: 0, Version: nfs.V3, Seed: 21},
		srv, 0x0a000001, sink)
	fh, rt := d.Create(1.0, root, "inbox", false)
	rt = d.WriteRange(rt, fh, 0, 2<<20) // 2 MB mailbox

	// The mail reader scans the whole mailbox.
	if wire, r2 := c.ReadFile(rt+1, fh, 2<<20); wire != 2<<20 {
		t.Fatalf("initial read %d", wire)
	} else {
		rt = r2
	}

	// A new message arrives: delivery appends 4 KB.
	d.WriteRange(rt+2, fh, 2<<20, 4096)

	// The reader's attr cache expires, it validates, sees the new
	// mtime, and re-reads all 2 MB + 4 KB.
	wire, _ := c.ReadFile(rt+c.AttrTimeout+5, fh, (2<<20)+4096)
	if wire != (2<<20)+4096 {
		t.Fatalf("invalidation re-read moved %d bytes, want full file", wire)
	}
}

func TestLookupCached(t *testing.T) {
	c, sink, srv := newRig(nfs.V3)
	root := srv.FS.RootFH()
	_, rt := c.Create(1.0, root, "f", false)
	before := len(sink.Records)
	fh, rt := c.LookupCached(rt, root, "f")
	if fh == nil {
		t.Fatal("lookup failed")
	}
	if len(sink.Records) != before {
		t.Fatal("cached lookup hit the wire")
	}
	// After expiry it goes to the wire.
	fh2, _ := c.LookupCached(rt+c.AttrTimeout+1, root, "f")
	if fh2 == nil || len(sink.Records) == before {
		t.Fatal("expired lookup did not refresh")
	}
}

func TestV2ClientEmitsV2Records(t *testing.T) {
	c, sink, srv := newRig(nfs.V2)
	root := srv.FS.RootFH()
	fh, rt := c.Create(1.0, root, "data.txt", false)
	if fh == nil {
		t.Fatal("v2 create failed")
	}
	rt = c.WriteRange(rt, fh, 0, 4096)
	c.ReadRange(rt+0.1, fh, 0, 4096)
	c.Access(rt+0.2, fh)
	for _, r := range sink.Records {
		if r.Version != nfs.V2 {
			t.Fatalf("v2 client emitted v%d record: %+v", r.Version, r)
		}
		if r.Proc == core.MustProc("access") || r.Proc == core.MustProc("commit") {
			t.Fatalf("v2 client emitted v3-only proc %q", r.Proc)
		}
	}
	// v2 small write is synchronous; no commit should appear, and the
	// write must carry FileSync implicitly (stable field meaningless in
	// v2 records, count preserved).
	var sawWrite bool
	for _, r := range sink.Records {
		if r.Kind == core.KindCall && r.Proc == core.MustProc("write") {
			sawWrite = true
			if r.Count != 4096 {
				t.Fatalf("v2 write count %d", r.Count)
			}
		}
	}
	if !sawWrite {
		t.Fatal("no v2 write observed")
	}
}

func TestAppendUsesCachedSize(t *testing.T) {
	c, sink, srv := newRig(nfs.V3)
	root := srv.FS.RootFH()
	fh, rt := c.Create(1.0, root, "mbox", false)
	rt = c.Append(rt, fh, 5000)
	rt = c.Append(rt, fh, 3000)
	_ = rt
	// Find the write calls; the second append must start at offset 5000.
	var offsets []uint64
	for _, r := range sink.Records {
		if r.Kind == core.KindCall && r.Proc == core.MustProc("write") {
			offsets = append(offsets, r.Offset)
		}
	}
	if len(offsets) != 2 || offsets[0] != 0 || offsets[1] != 5000 {
		t.Fatalf("append offsets: %v", offsets)
	}
	ino, _ := srv.FS.GetFH(fh)
	if ino.Size != 8000 {
		t.Fatalf("file size %d", ino.Size)
	}
}

func TestRemoveInvalidatesCaches(t *testing.T) {
	c, _, srv := newRig(nfs.V3)
	root := srv.FS.RootFH()
	fh, rt := c.Create(1.0, root, "tmp", false)
	status, rt := c.Remove(rt, root, "tmp")
	if status != nfs.OK {
		t.Fatalf("remove status %d", status)
	}
	// A fresh create reuses the name; cached handle must not leak.
	fh2, _ := c.LookupCached(rt, root, "tmp")
	if fh2 != nil && fh2.Equal(fh) {
		t.Fatal("stale name cache entry survived remove")
	}
}

func TestSortingSinkOrdersRecords(t *testing.T) {
	var got []*core.Record
	final := FuncSink(func(r *core.Record, _ int) { got = append(got, r) })
	s := NewSortingSink(final)
	times := []float64{10, 11, 10.5, 12, 11.7, 30, 29.5, 40}
	for _, tm := range times {
		s.Record(&core.Record{Time: tm}, 100)
	}
	s.Flush()
	if len(got) != len(times) {
		t.Fatalf("%d records out", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Time > got[i].Time {
			t.Fatalf("unsorted output at %d", i)
		}
	}
}

func TestLossySinkDropsUnderOverload(t *testing.T) {
	var kept int
	final := FuncSink(func(r *core.Record, _ int) { kept++ })
	port := netem.NewMirrorPort()
	port.Rate = 1e6 // cripple the port: 1 MB/s
	l := &LossySink{Next: final, Port: port}
	// Offer 10 MB in one second: most must drop.
	n := 0
	for t0 := 0.0; t0 < 1.0; t0 += 0.001 {
		l.Record(&core.Record{Time: t0}, 10000)
		n++
	}
	if kept >= n {
		t.Fatal("no loss under overload")
	}
	if port.LossRate() < 0.5 {
		t.Fatalf("loss rate %.2f too low for 10x overload", port.LossRate())
	}
}

func TestReadRangePipelinedTimesCanSwap(t *testing.T) {
	// With several nfsiods, a long pipelined read batch should show at
	// least some wire-time inversions relative to offset order.
	c, sink, srv := newRig(nfs.V3)
	c.Pool = NewPool(8, 99)
	root := srv.FS.RootFH()
	fh, rt := c.Create(1.0, root, "big", false)
	rt = c.WriteRange(rt, fh, 0, 4<<20)
	sink.Records = sink.Records[:0]
	c.ReadRange(rt+1, fh, 0, 4<<20) // 512 pipelined reads
	type ev struct {
		t   float64
		off uint64
	}
	var reads []ev
	for _, r := range sink.Records {
		if r.Kind == core.KindCall && r.Proc == core.MustProc("read") {
			reads = append(reads, ev{r.Time, r.Offset})
		}
	}
	if len(reads) != 512 {
		t.Fatalf("%d reads", len(reads))
	}
	swaps := 0
	for i := 1; i < len(reads); i++ {
		if reads[i].t < reads[i-1].t {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("no wire-time inversions in a 512-read pipeline with 8 nfsiods")
	}
}

// TestTranslateV2 walks every v3 procedure number through the one
// v3→v2 narrowing both clients use: each lands on the expected v2
// procedure with args the v2 encoder accepts, which is what the socket
// path needs.
func TestTranslateV2(t *testing.T) {
	fh := nfs.MakeFH(7)
	where := nfs.DirOpArgs3{Dir: fh, Name: "n"}
	cases := []struct {
		v3   uint32
		args any
		v2   uint32
	}{
		{nfs.V3Null, nil, nfs.V2Null},
		{nfs.V3Getattr, &nfs.GetattrArgs3{FH: fh}, nfs.V2Getattr},
		{nfs.V3Setattr, &nfs.SetattrArgs3{FH: fh}, nfs.V2Setattr},
		{nfs.V3Lookup, &nfs.LookupArgs3{Dir: fh, Name: "n"}, nfs.V2Lookup},
		{nfs.V3Access, &nfs.AccessArgs3{FH: fh, Access: 0x3F}, nfs.V2Getattr},
		{nfs.V3Readlink, &nfs.GetattrArgs3{FH: fh}, nfs.V2Null},
		{nfs.V3Read, &nfs.ReadArgs3{FH: fh, Offset: 8192, Count: 4096}, nfs.V2Read},
		{nfs.V3Write, &nfs.WriteArgs3{FH: fh, Offset: 8192, Count: 4096}, nfs.V2Write},
		{nfs.V3Create, &nfs.CreateArgs3{Where: where}, nfs.V2Create},
		{nfs.V3Mkdir, &nfs.MkdirArgs3{Where: where}, nfs.V2Mkdir},
		{nfs.V3Symlink, &nfs.SymlinkArgs3{Where: where, Target: "t"}, nfs.V2Symlink},
		{nfs.V3Mknod, nil, nfs.V2Null},
		{nfs.V3Remove, &nfs.DirOpArgs3{Dir: fh, Name: "n"}, nfs.V2Remove},
		{nfs.V3Rmdir, &nfs.DirOpArgs3{Dir: fh, Name: "n"}, nfs.V2Rmdir},
		{nfs.V3Rename, &nfs.RenameArgs3{From: where, To: where}, nfs.V2Rename},
		{nfs.V3Link, &nfs.LinkArgs3{FH: fh, To: where}, nfs.V2Link},
		{nfs.V3Readdir, &nfs.ReaddirArgs3{Dir: fh, Cookie: 3, MaxCount: 4096}, nfs.V2Readdir},
		{nfs.V3Readdirplus, &nfs.ReaddirArgs3{Dir: fh, MaxCount: 4096}, nfs.V2Null},
		{nfs.V3Fsstat, &nfs.GetattrArgs3{FH: fh}, nfs.V2Statfs},
		{nfs.V3Fsinfo, &nfs.GetattrArgs3{FH: fh}, nfs.V2Null},
		{nfs.V3Pathconf, &nfs.GetattrArgs3{FH: fh}, nfs.V2Null},
		{nfs.V3Commit, &nfs.CommitArgs3{FH: fh, Count: 4096}, nfs.V2Getattr},
	}
	for i, c := range cases {
		if c.v3 != uint32(i) {
			t.Fatalf("case %d is v3 procedure %d: the table must cover every number in order", i, c.v3)
		}
		proc, args := translateV2(c.v3, c.args)
		if proc != c.v2 {
			t.Errorf("v3 proc %d: v2 proc %d, want %d", c.v3, proc, c.v2)
		}
		if err := nfs.EncodeArgs2(xdr.NewEncoder(64), proc, args); err != nil {
			t.Errorf("v3 proc %d: v2 proc %d does not encode: %v", c.v3, proc, err)
		}
		// The simulated client narrows through the same function.
		if v, p, _ := (&Client{Version: nfs.V2}).translate(c.v3, c.args); v != nfs.V2 || p != c.v2 {
			t.Errorf("v3 proc %d: Client.translate gives v%d proc %d", c.v3, v, p)
		}
	}
	if v, p, a := (&Client{Version: nfs.V3}).translate(nfs.V3Commit, cases[nfs.V3Commit].args); v != nfs.V3 || p != nfs.V3Commit || a != cases[nfs.V3Commit].args {
		t.Errorf("v3 client must pass through, got v%d proc %d", v, p)
	}
}
