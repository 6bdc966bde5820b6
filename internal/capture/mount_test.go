package capture

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mount"
	"repro/internal/nfs"
	"repro/internal/pipeline"
	"repro/internal/rpc"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// buildMountExchange frames a MNT call and its reply as UDP packets.
func buildMountExchange(t *testing.T, path string, fh nfs.FH) (callPkt, replyPkt []byte) {
	t.Helper()
	clientIP := wire.IP{10, 2, 0, 5}
	serverIP := wire.IP{10, 2, 0, 1}

	cred := xdr.NewEncoder(64)
	(&rpc.AuthSysBody{MachineName: "ws", UID: 3000, GID: 300}).Encode(cred)
	args := xdr.NewEncoder(64)
	mount.EncodeMntArgs(args, &mount.MntArgs{DirPath: path})
	call := xdr.NewEncoder(128)
	rpc.EncodeCall(call, &rpc.CallHeader{
		XID: 0x1234, Program: rpc.ProgramMount, Version: 3, Proc: mount.ProcMnt,
		Cred: rpc.OpaqueAuth{Flavor: rpc.AuthSys, Body: cred.Bytes()},
		Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		Args: args.Bytes(),
	})
	callPkt = wire.BuildUDP(clientIP, serverIP, 700, 635, 1, call.Bytes())

	res := xdr.NewEncoder(64)
	mount.EncodeMntRes(res, &mount.MntRes{Status: mount.OK, FH: fh, Flavors: []uint32{1}})
	reply := xdr.NewEncoder(128)
	rpc.EncodeReply(reply, &rpc.ReplyHeader{
		XID: 0x1234, ReplyStat: rpc.MsgAccepted, AcceptStat: rpc.Success,
		Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone}, Results: res.Bytes(),
	})
	replyPkt = wire.BuildUDP(serverIP, clientIP, 635, 700, 2, reply.Bytes())
	return callPkt, replyPkt
}

func TestSnifferDecodesMountProtocol(t *testing.T) {
	callPkt, replyPkt := buildMountExchange(t, "/home/u001", nfs.MakeFH(2))
	var got []*core.Record
	s := NewSniffer(func(r *core.Record) { got = append(got, r) })
	s.HandlePacket(1.0, callPkt)
	s.HandlePacket(1.001, replyPkt)

	if len(got) != 2 {
		t.Fatalf("%d records", len(got))
	}
	call, reply := got[0], got[1]
	if call.Proc != core.MustProc("mnt") || call.Name != "/home/u001" {
		t.Fatalf("call: %+v", call)
	}
	if call.UID != 3000 || call.GID != 300 {
		t.Fatalf("cred: %d/%d", call.UID, call.GID)
	}
	if reply.Proc != core.MustProc("mnt") || reply.Status != mount.OK {
		t.Fatalf("reply: %+v", reply)
	}
	if reply.NewFH.String() != nfs.MakeFH(2).String() {
		t.Fatalf("root fh %q", reply.NewFH)
	}
	if s.Stats.NonNFS != 0 || s.Stats.Calls != 1 || s.Stats.Replies != 1 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

func TestSnifferMountThenNFSJoins(t *testing.T) {
	// The mount handshake followed by a GETATTR on the returned root:
	// joined ops should carry both.
	callPkt, replyPkt := buildMountExchange(t, "/home/u001", nfs.MakeFH(2))
	j := pipeline.NewPushJoiner()
	var ops []*core.Op
	s := NewSniffer(func(r *core.Record) { ops = j.Push(r, ops) })
	s.HandlePacket(1.0, callPkt)
	s.HandlePacket(1.001, replyPkt)

	ops = j.Drain(ops)
	if stats := j.Stats(); stats.Matched != 1 {
		t.Fatalf("join: %+v", stats)
	}
	if ops[0].Proc != core.MustProc("mnt") || ops[0].NewFH == core.InternFH("") {
		t.Fatalf("op: %+v", ops[0])
	}
}

func TestSnifferStillIgnoresForeignPrograms(t *testing.T) {
	// Portmapper (program 100000) remains foreign.
	call := xdr.NewEncoder(64)
	rpc.EncodeCall(call, &rpc.CallHeader{
		XID: 1, Program: 100000, Version: 2, Proc: 3,
		Cred: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
	})
	pkt := wire.BuildUDP(wire.IP{1, 1, 1, 1}, wire.IP{2, 2, 2, 2}, 5, 111, 1, call.Bytes())
	s := NewSniffer(nil)
	s.HandlePacket(1, pkt)
	if s.Stats.NonNFS != 1 || s.Stats.Calls != 0 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

// TestSnifferMountLongHandle: a MNT reply's handle is not bounded by
// NFSv3's 64 bytes, and a longer one still interns its full spelling.
func TestSnifferMountLongHandle(t *testing.T) {
	long := make(nfs.FH, 100)
	for i := range long {
		long[i] = byte(i)
	}
	callPkt, replyPkt := buildMountExchange(t, "/export", long)
	var got []*core.Record
	s := NewSniffer(func(r *core.Record) { got = append(got, r) })
	s.HandlePacket(1.0, callPkt)
	s.HandlePacket(1.001, replyPkt)
	if len(got) != 2 || got[1].NewFH.String() != long.String() {
		t.Fatalf("records %+v", got)
	}
}
