package server_test

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// startServer builds a filesystem with nfiles prepopulated files and
// serves it on a loopback socket.
func startServer(t *testing.T, nfiles int, filesize uint64) (*server.NetServer, *vfs.FS) {
	t.Helper()
	fs := vfs.New()
	for i := 0; i < nfiles; i++ {
		ino, err := fs.Create(fs.Root(), fmt.Sprintf("file%03d", i), 100, 100, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Truncate(ino.ID, filesize); err != nil {
			t.Fatal(err)
		}
	}
	ns, err := server.Listen(server.New(fs), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns, fs
}

// TestLoopbackMixedVersions runs N concurrent clients — half NFSv3,
// half NFSv2 — issuing a mixed read/write/metadata workload over real
// TCP sockets, asserting every reply's status. Must pass under -race.
func TestLoopbackMixedVersions(t *testing.T) {
	const nclients = 8
	const opsPerClient = 60
	ns, _ := startServer(t, 4, 32768)

	var wg sync.WaitGroup
	errs := make(chan error, nclients)
	for i := 0; i < nclients; i++ {
		version := uint32(nfs.V3)
		if i%2 == 1 {
			version = nfs.V2
		}
		wg.Add(1)
		go func(i int, version uint32) {
			defer wg.Done()
			errs <- runClientMix(ns.Addr(), i, version, opsPerClient)
		}(i, version)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if ns.BadRPC() != 0 {
		t.Errorf("server dropped %d connections for bad RPC", ns.BadRPC())
	}
	if ns.Calls() == 0 {
		t.Error("server executed no calls")
	}
}

// runClientMix is one simulated client's workload: wire lookups, reads
// at several offsets, writes, metadata, and a create/remove pair in a
// private namespace. Every status is checked.
func runClientMix(addr string, id int, version uint32, ops int) error {
	c, err := client.DialNFS(addr, version, uint32(1000+id), 100)
	if err != nil {
		return err
	}
	defer c.Close()
	root := nfs.MakeFH(2) // vfs root inode

	fhs := make([]nfs.FH, 4)
	for k := range fhs {
		fh, status, err := c.NetLookup(root, fmt.Sprintf("file%03d", k))
		if err != nil || status != nfs.OK {
			return fmt.Errorf("client %d: lookup file%03d: status %d err %v", id, k, status, err)
		}
		fhs[k] = fh
	}
	// Missing names must report NOENT, not kill the connection.
	if _, status, err := c.NetLookup(root, "no-such-file"); err != nil || status != nfs.ErrNoEnt {
		return fmt.Errorf("client %d: missing lookup: status %d err %v", id, status, err)
	}

	for i := 0; i < ops; i++ {
		fh := fhs[(i+id)%len(fhs)]
		switch i % 4 {
		case 0:
			if status, err := c.NetRead(fh, uint64(i%4)*8192, 8192); err != nil || status != nfs.OK {
				return fmt.Errorf("client %d: read: status %d err %v", id, status, err)
			}
		case 1:
			if status, err := c.NetWrite(fh, uint64(i%4)*8192, 4096); err != nil || status != nfs.OK {
				return fmt.Errorf("client %d: write: status %d err %v", id, status, err)
			}
		case 2:
			if status, err := c.NetGetattr(fh); err != nil || status != nfs.OK {
				return fmt.Errorf("client %d: getattr: status %d err %v", id, status, err)
			}
		case 3:
			if status, err := c.NetAccess(fh); err != nil || status != nfs.OK {
				return fmt.Errorf("client %d: access: status %d err %v", id, status, err)
			}
		}
	}

	// Private create → truncate → remove cycle.
	name := fmt.Sprintf("scratch-%d", id)
	fh, status, err := c.NetCreate(root, name)
	if err != nil || status != nfs.OK || fh == nil {
		return fmt.Errorf("client %d: create: status %d err %v", id, status, err)
	}
	if status, err := c.NetTruncate(fh, 1024); err != nil || status != nfs.OK {
		return fmt.Errorf("client %d: truncate: status %d err %v", id, status, err)
	}
	if status, err := c.NetRemove(root, name); err != nil || status != nfs.OK {
		return fmt.Errorf("client %d: remove: status %d err %v", id, status, err)
	}
	// Stale handle after remove.
	if status, err := c.NetGetattr(fh); err != nil || status != nfs.ErrStale {
		return fmt.Errorf("client %d: stale getattr: status %d err %v", id, status, err)
	}
	if n := c.Unmatched.Load(); n != 0 {
		return fmt.Errorf("client %d: %d unmatched replies", id, n)
	}
	return nil
}

// encodeRawCall builds the record-marked bytes of one NFSv3 call with
// an explicit xid, bypassing NetClient, for xid-matching assertions.
func encodeRawCall(t *testing.T, xid uint32, proc uint32, args any) []byte {
	t.Helper()
	argEnc := xdr.NewEncoder(128)
	if err := nfs.EncodeArgs3(argEnc, proc, args); err != nil {
		t.Fatal(err)
	}
	e := xdr.NewEncoder(256)
	rpc.EncodeCall(e, &rpc.CallHeader{
		XID: xid, Program: rpc.ProgramNFS, Version: nfs.V3, Proc: proc,
		Cred: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		Args: argEnc.Bytes(),
	})
	return e.Bytes()
}

// TestXidMatchingPipelined writes several pipelined calls with chosen
// xids on a raw socket — one of them split across record-marking
// fragments — and asserts the replies come back with matching xids and
// Success accept status.
func TestXidMatchingPipelined(t *testing.T) {
	ns, _ := startServer(t, 1, 8192)
	conn, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	root := nfs.MakeFH(2)
	xids := []uint32{7, 9, 0xDEADBEEF}
	var raw []byte
	for i, xid := range xids {
		msg := encodeRawCall(t, xid, nfs.V3Getattr, &nfs.GetattrArgs3{FH: root})
		if i == 1 {
			// Exercise record-marking reassembly: 5-byte fragments.
			raw = append(raw, rpc.MarkRecordFragmented(msg, 5)...)
		} else {
			raw = append(raw, rpc.MarkRecord(msg)...)
		}
	}
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}

	rc := wire.NewRecordConn(conn)
	for _, want := range xids {
		reply, err := rc.ReadRecord()
		if err != nil {
			t.Fatalf("reading reply for xid %d: %v", want, err)
		}
		dec, err := rpc.Decode(reply)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Type != rpc.Reply {
			t.Fatalf("got message type %d, want reply", dec.Type)
		}
		if dec.Reply.XID != want {
			t.Fatalf("reply xid %d, want %d (replies must match calls in order)", dec.Reply.XID, want)
		}
		if dec.Reply.AcceptStat != rpc.Success {
			t.Fatalf("xid %d: accept stat %d", want, dec.Reply.AcceptStat)
		}
		res, err := nfs.DecodeRes3(nfs.V3Getattr, dec.Reply.Results)
		if err != nil {
			t.Fatal(err)
		}
		if status := client.StatusOf(res); status != nfs.OK {
			t.Fatalf("xid %d: nfs status %d", want, status)
		}
	}
}

// TestBadProgramAndGarbage checks the RPC-level error paths: wrong
// program number answers ProgUnavail; an unparseable record drops the
// connection and is counted.
func TestBadProgramAndGarbage(t *testing.T) {
	ns, _ := startServer(t, 1, 1024)

	// Wrong program → accepted reply with ProgUnavail.
	conn, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	e := xdr.NewEncoder(128)
	rpc.EncodeCall(e, &rpc.CallHeader{
		XID: 3, Program: rpc.ProgramMount, Version: 3, Proc: 0,
		Cred: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
	})
	if _, err := conn.Write(rpc.MarkRecord(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	rc := wire.NewRecordConn(conn)
	reply, err := rc.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := rpc.Decode(reply)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Reply.XID != 3 || dec.Reply.AcceptStat != rpc.ProgUnavail {
		t.Fatalf("got xid %d stat %d, want 3/ProgUnavail", dec.Reply.XID, dec.Reply.AcceptStat)
	}

	// Garbage record → connection dropped, BadRPC counted.
	conn2, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(rpc.MarkRecord([]byte{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := conn2.Read(buf); err != io.EOF {
		t.Fatalf("expected EOF on garbage connection, got %v", err)
	}
	if ns.BadRPC() == 0 {
		t.Error("BadRPC not counted")
	}
}

// TestUnavailProcAndGarbageArgs checks the accept status of calls whose
// args do not decode: PROC_UNAVAIL for a procedure the codec does not
// model, GARBAGE_ARGS for args cut short. Each is followed by a NULL
// call, which must still be answered on the same connection.
func TestUnavailProcAndGarbageArgs(t *testing.T) {
	ns, _ := startServer(t, 0, 0)
	conn, err := net.Dial("tcp", ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rc := wire.NewRecordConn(conn)
	var xid uint32
	// call sends one call whose args are what build writes and returns
	// the reply's accept status.
	call := func(version, proc uint32, build func(e *xdr.Encoder)) uint32 {
		t.Helper()
		xid++
		e := xdr.NewEncoder(128)
		rpc.EncodeCall(e, &rpc.CallHeader{
			XID: xid, Program: rpc.ProgramNFS, Version: version, Proc: proc,
			Cred: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
			Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		})
		build(e)
		if err := rc.WriteRecord(e.Bytes()); err != nil {
			t.Fatal(err)
		}
		reply, err := rc.ReadRecord()
		if err != nil {
			t.Fatalf("xid %d: %v", xid, err)
		}
		dec, err := rpc.Decode(reply)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Type != rpc.Reply || dec.Reply.XID != xid || dec.Reply.ReplyStat != rpc.MsgAccepted {
			t.Fatalf("xid %d: not an accepted reply to it: %+v", xid, dec.Reply)
		}
		return dec.Reply.AcceptStat
	}
	none := func(*xdr.Encoder) {}
	for _, tc := range []struct {
		name          string
		version, proc uint32
		args          func(e *xdr.Encoder)
		want          uint32
	}{
		{"v3 proc 99", nfs.V3, 99, none, rpc.ProcUnavail},
		{"v3 MKNOD", nfs.V3, nfs.V3Mknod, func(e *xdr.Encoder) {
			e.PutOpaque(nfs.MakeFH(2))
			e.PutString("dev")
			e.PutUint32(nfs.TypeReg)
		}, rpc.ProcUnavail},
		{"v2 proc 18", nfs.V2, 18, none, rpc.ProcUnavail},
		{"v3 GETATTR cut short", nfs.V3, nfs.V3Getattr, func(e *xdr.Encoder) {
			e.PutUint32(8) // an 8-byte handle of which 4 bytes follow
			e.PutUint32(0x01020304)
		}, rpc.GarbageArgs},
	} {
		if got := call(tc.version, tc.proc, tc.args); got != tc.want {
			t.Errorf("%s: accept stat %d, want %d", tc.name, got, tc.want)
		}
		if got := call(nfs.V3, nfs.V3Null, none); got != rpc.Success {
			t.Fatalf("NULL after %s: accept stat %d", tc.name, got)
		}
	}
	if n := ns.BadRPC(); n != 0 {
		t.Errorf("%d calls counted as bad RPC", n)
	}
}
