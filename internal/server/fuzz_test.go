package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/vfs"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// FuzzServeConn feeds arbitrary bytes to one NetServer connection over
// net.Pipe, through the connection's reused call buffer, decoders and
// reply encoder. The input is read as the server reads it (record
// framing, then RPC headers) to know which calls it must answer. Each
// input must end with no panic, one well-formed reply per call in
// order, the connection closed after a record that is not a call or
// idle after the last byte, and a filesystem that passes
// vfs.CheckInvariants.
func FuzzServeConn(f *testing.F) {
	for _, seed := range serveSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		calls, dropped := readCalls(in)
		ns := &NetServer{srv: New(vfs.New())}
		cli, srv := net.Pipe()
		served := make(chan struct{})
		go func() {
			ns.serve(wire.NewRecordConn(srv), connID{}, &connBuffers{})
			srv.Close()
			close(served)
		}()
		wrote := make(chan error, 1)
		go func() {
			_, err := cli.Write(in) // fails once the server drops the connection
			wrote <- err
		}()
		cli.SetDeadline(time.Now().Add(10 * time.Second))
		rc := wire.NewRecordConn(cli)
		for i, call := range calls {
			msg, err := rc.ReadRecord()
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(calls), err)
			}
			if err := checkReply(call, msg); err != nil {
				t.Fatalf("reply %d (xid %d, program %d, v%d proc %d): %v", i+1, call.XID, call.Program, call.Version, call.Proc, err)
			}
		}
		if dropped {
			if msg, err := rc.ReadRecord(); err != io.EOF {
				t.Fatalf("after a record that is not a call: %d more bytes, err %v; want the connection closed", len(msg), err)
			}
		} else if err := <-wrote; err != nil { // idle: every byte read, waiting for more
			t.Fatalf("server stopped reading after %d calls: %v", len(calls), err)
		}
		cli.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("connection still served after the client closed")
		}
		if err := ns.srv.FS.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// readCalls returns the calls in the leading well-formed records of in,
// which the server must answer in order, and whether a record after
// them makes the server drop the connection: one that is not a call or
// whose framing is refused. A stream that ends, even inside a record,
// leaves the server waiting.
func readCalls(in []byte) (calls []*rpc.CallHeader, dropped bool) {
	rc := wire.NewRecordConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(in), io.Discard})
	for {
		msg, err := rc.ReadRecord()
		if err != nil {
			return calls, err != io.EOF && err != io.ErrUnexpectedEOF
		}
		m, err := rpc.Decode(msg)
		if err != nil || m.Type != rpc.Call {
			return calls, true
		}
		calls = append(calls, m.Call)
	}
}

// checkReply reports whether msg is the reply the server owes call h:
// an accepted reply under h's xid whose status follows from h, and
// whose results, on success, decode as the results of h's procedure.
func checkReply(h *rpc.CallHeader, msg []byte) error {
	m, err := rpc.Decode(msg)
	if err != nil {
		return err
	}
	if m.Type != rpc.Reply || m.Reply.XID != h.XID || m.Reply.ReplyStat != rpc.MsgAccepted {
		return fmt.Errorf("not an accepted reply to this call: %+v", m)
	}
	want := uint32(rpc.Success)
	switch {
	case h.Program != rpc.ProgramNFS:
		want = rpc.ProgUnavail
	case h.Version != nfs.V2 && h.Version != nfs.V3:
		want = rpc.ProgMismatch
	default:
		if _, err := nfs.DecodeArgs(h.Version, h.Proc, h.Args); errors.Is(err, nfs.ErrBadProc) {
			want = rpc.ProcUnavail
		} else if err != nil {
			want = rpc.GarbageArgs
		}
	}
	if got := m.Reply.AcceptStat; got != want {
		return fmt.Errorf("accept stat %d, want %d", got, want)
	}
	if want == rpc.Success {
		if _, err := nfs.DecodeRes(h.Version, h.Proc, m.Reply.Results); err != nil {
			return fmt.Errorf("results: %w", err)
		}
	}
	return nil
}

// callRecord frames one call to prog with an AUTH_SYS credential and,
// when args is not nil, NFS args of version.
func callRecord(xid, prog, version, proc uint32, args any) []byte {
	var cred, e xdr.Encoder
	(&rpc.AuthSysBody{MachineName: "fuzz", UID: 100, GID: 100}).Encode(&cred)
	rpc.EncodeCall(&e, &rpc.CallHeader{XID: xid, Program: prog, Version: version, Proc: proc,
		Cred: rpc.OpaqueAuth{Flavor: rpc.AuthSys, Body: cred.Bytes()}})
	if args != nil {
		if err := nfs.EncodeArgs(version, &e, proc, args); err != nil {
			panic(err)
		}
	}
	return append(rpc.AppendFragmentHeader(nil, e.Len(), true), e.Bytes()...)
}

// serveSeeds are call streams a client could send: a v3 session over a
// small tree, a v2 one, calls the server must refuse, and streams that
// are fragmented, cut short, or go bad part of the way.
func serveSeeds() [][]byte {
	root, file, dir := nfs.MakeFH(2), nfs.MakeFH(3), nfs.MakeFH(4)
	size := uint64(20000)
	type call struct {
		prog, version, proc uint32
		args                any
	}
	var xid uint32
	stream := func(calls ...call) []byte {
		var b []byte
		for _, c := range calls {
			xid++
			b = append(b, callRecord(xid, c.prog, c.version, c.proc, c.args)...)
		}
		return b
	}
	nfs3 := func(proc uint32, args any) call { return call{rpc.ProgramNFS, nfs.V3, proc, args} }
	nfs2 := func(proc uint32, args any) call { return call{rpc.ProgramNFS, nfs.V2, proc, args} }
	v3 := stream(
		nfs3(nfs.V3Null, nil),
		nfs3(nfs.V3Create, &nfs.CreateArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "a"}}),
		nfs3(nfs.V3Write, &nfs.WriteArgs3{FH: file, Count: 8192, Stable: nfs.FileSync, Data: Filler(8192)}),
		nfs3(nfs.V3Write, &nfs.WriteArgs3{FH: file, Offset: 8192, Count: 8192, Data: Filler(8192)}),
		nfs3(nfs.V3Read, &nfs.ReadArgs3{FH: file, Offset: 4096, Count: 8192}),
		nfs3(nfs.V3Lookup, &nfs.LookupArgs3{Dir: root, Name: "a"}),
		nfs3(nfs.V3Mkdir, &nfs.MkdirArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "d"}}),
		nfs3(nfs.V3Rename, &nfs.RenameArgs3{From: nfs.DirOpArgs3{Dir: root, Name: "a"}, To: nfs.DirOpArgs3{Dir: dir, Name: "b"}}),
		nfs3(nfs.V3Link, &nfs.LinkArgs3{FH: file, To: nfs.DirOpArgs3{Dir: root, Name: "c"}}),
		nfs3(nfs.V3Symlink, &nfs.SymlinkArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "s"}, Target: "d/b"}),
		nfs3(nfs.V3Setattr, &nfs.SetattrArgs3{FH: file, Attr: nfs.Sattr{Size: &size}}),
		nfs3(nfs.V3Readdir, &nfs.ReaddirArgs3{Dir: root, MaxCount: 4096}),
		nfs3(nfs.V3Readdirplus, &nfs.ReaddirArgs3{Dir: dir, MaxCount: 4096}),
		nfs3(nfs.V3Getattr, &nfs.GetattrArgs3{FH: file}),
		nfs3(nfs.V3Access, &nfs.AccessArgs3{FH: file, Access: 0x3f}),
		nfs3(nfs.V3Fsstat, &nfs.GetattrArgs3{FH: root}),
		nfs3(nfs.V3Commit, &nfs.CommitArgs3{FH: file, Count: 8192}),
		nfs3(nfs.V3Remove, &nfs.DirOpArgs3{Dir: root, Name: "c"}),
		nfs3(nfs.V3Rmdir, &nfs.DirOpArgs3{Dir: root, Name: "d"}),
	)
	v2 := stream(
		nfs2(nfs.V2Create, &nfs.CreateArgs2{Where: nfs.DirOpArgs3{Dir: root, Name: "v2"}}),
		nfs2(nfs.V2Write, &nfs.WriteArgs2{FH: file, Offset: 100, Data: Filler(1000)}),
		nfs2(nfs.V2Read, &nfs.ReadArgs2{FH: file, Count: 4096}),
		nfs2(nfs.V2Lookup, &nfs.DirOpArgs3{Dir: root, Name: "v2"}),
		nfs2(nfs.V2Setattr, &nfs.SetattrArgs2{FH: file, Attr: nfs.Sattr{Size: &size}}),
		nfs2(nfs.V2Readdir, &nfs.ReaddirArgs2{Dir: root, Count: 4096}),
		nfs2(nfs.V2Remove, &nfs.DirOpArgs3{Dir: root, Name: "v2"}),
	)
	refused := stream(
		call{rpc.ProgramMount, 3, 0, nil},
		call{rpc.ProgramNFS, 4, 0, nil},
		nfs3(99, nil),
		nfs3(nfs.V3Mknod, nil),
		nfs2(nfs.V2NumProcs, nil),
		nfs3(nfs.V3Read, nil), // no args
	)
	var reply xdr.Encoder
	rpc.EncodeReply(&reply, &rpc.ReplyHeader{XID: 7, ReplyStat: rpc.MsgAccepted})
	notCall := append(rpc.AppendFragmentHeader(nil, reply.Len(), true), reply.Bytes()...)
	// A CREATE in two fragments, then a READ of what it made.
	create := callRecord(1, rpc.ProgramNFS, nfs.V3, nfs.V3Create,
		&nfs.CreateArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "frag"}})[4:]
	half := len(create) / 2
	fragmented := append(rpc.AppendFragmentHeader(nil, half, false), create[:half]...)
	fragmented = append(rpc.AppendFragmentHeader(fragmented, len(create)-half, true), create[half:]...)
	fragmented = append(fragmented, callRecord(2, rpc.ProgramNFS, nfs.V3, nfs.V3Read, &nfs.ReadArgs3{FH: file, Count: 512})...)
	return [][]byte{
		nil,
		v3,
		v2,
		refused,
		fragmented,
		append(append(bytes.Clone(v3), notCall...), v2...),
		v3[:len(v3)-5],
		rpc.AppendFragmentHeader(bytes.Clone(v2), rpc.MaxRecordLen+1, true),
	}
}
