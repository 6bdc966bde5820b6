package server

import (
	"net"
	"testing"

	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// TestConnBuffersCapped serves single calls on a connection and then
// looks at what the connection kept for the next call: the call buffer
// and reply encoder of an ordinary call stay for reuse, and one grown
// past wire.MaxReuse — by a 4 MiB WRITE's call or a 4 MiB READ's reply —
// is released.
func TestConnBuffersCapped(t *testing.T) {
	ns := &NetServer{srv: newServer()}
	root := ns.srv.FS.RootFH()
	res := ns.srv.HandleV3(nfs.V3Create, &nfs.CreateArgs3{Where: nfs.DirOpArgs3{Dir: root, Name: "big"}}).(*nfs.CreateRes3)
	if res.Status != nfs.OK {
		t.Fatalf("create: status %d", res.Status)
	}
	const big = 4 << 20
	cases := []struct {
		name              string
		proc              uint32
		args              any
		keepCall, keepRep bool
	}{
		{"8 KiB write", nfs.V3Write, &nfs.WriteArgs3{FH: res.FH, Count: 8 << 10, Stable: nfs.FileSync, Data: Filler(8 << 10)}, true, true},
		{"4 MiB write", nfs.V3Write, &nfs.WriteArgs3{FH: res.FH, Count: big, Stable: nfs.FileSync, Data: Filler(big)}, false, true},
		// The file is 4 MiB long after the previous case.
		{"4 MiB read", nfs.V3Read, &nfs.ReadArgs3{FH: res.FH, Count: big}, true, false},
	}
	for xid, tc := range cases {
		e := xdr.NewEncoder(256)
		rpc.EncodeCall(e, &rpc.CallHeader{XID: uint32(xid), Program: rpc.ProgramNFS, Version: nfs.V3, Proc: tc.proc})
		if err := nfs.EncodeArgs3(e, tc.proc, tc.args); err != nil {
			t.Fatal(err)
		}
		cli, srv := net.Pipe()
		bufs := &connBuffers{}
		done := make(chan struct{})
		go func() {
			ns.serve(wire.NewRecordConn(srv), connID{}, bufs)
			close(done)
		}()
		rc := wire.NewRecordConn(cli)
		if err := rc.WriteRecord(e.Bytes()); err != nil {
			t.Fatal(err)
		}
		reply, err := rc.ReadRecord()
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := rpc.Decode(reply); err != nil || dec.Reply.AcceptStat != rpc.Success {
			t.Fatalf("%s: reply %v, err %v", tc.name, dec, err)
		}
		cli.Close()
		<-done
		srv.Close()

		call, rep := cap(bufs.call), cap(bufs.reply.Bytes())
		if call > wire.MaxReuse || rep > wire.MaxReuse {
			t.Errorf("%s: kept a %d-byte call buffer and a %d-byte reply encoder, cap %d", tc.name, call, rep, wire.MaxReuse)
		}
		if (call > 0) != tc.keepCall || (rep > 0) != tc.keepRep {
			t.Errorf("%s: call buffer %d bytes, reply encoder %d bytes; want kept = %v, %v", tc.name, call, rep, tc.keepCall, tc.keepRep)
		}
	}
}
