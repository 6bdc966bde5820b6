package client

import (
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// Tap receives each RPC message a client exchanges with its server,
// encoded and without record marking, with its wire time, the client's
// transport and port, and its direction. A WireTap frames every message
// as it arrives.
type Tap interface {
	Message(t float64, proto byte, port uint16, fromClient bool, msg []byte)
}

// PacketSink receives fully framed packets with their wire times — the
// input a real sniffer would see. Wire together with pcap.Writer to
// produce capture files.
type PacketSink interface {
	Packet(t float64, frame []byte)
}

// WireTap attaches to a Client and emits byte-faithful packets for every
// call and reply, over UDP (with IP fragmentation at the configured MTU)
// or TCP (with RPC record marking and sequence numbers).
type WireTap struct {
	Sink PacketSink
	// MTU controls UDP fragmentation (wire.StandardMTU or
	// wire.JumboMTU).
	MTU int

	clientIP wire.IP
	serverIP wire.IP
	ipid     uint16
	// TCP sequence state per direction.
	cliSeq  uint32
	srvSeq  uint32
	synSent bool
}

// NewWireTap builds a tap for a client/server IP pair.
func NewWireTap(sink PacketSink, clientIP, serverIP uint32, mtu int) *WireTap {
	if mtu <= 0 {
		mtu = wire.StandardMTU
	}
	return &WireTap{
		Sink: sink, MTU: mtu,
		clientIP: wire.IPFromUint32(clientIP),
		serverIP: wire.IPFromUint32(serverIP),
		cliSeq:   1000, srvSeq: 5000,
	}
}

// NFSPort is the well-known NFS server port.
const NFSPort = 2049

// callMessage encodes the RPC call message carrying args.
func callMessage(t float64, xid, version, proc, uid, gid uint32, args []byte) []byte {
	cred := xdr.NewEncoder(64)
	(&rpc.AuthSysBody{Stamp: uint32(t), MachineName: "client",
		UID: uid, GID: gid, GIDs: []uint32{gid}}).Encode(cred)
	e := xdr.NewEncoder(len(args) + 128)
	rpc.EncodeCall(e, &rpc.CallHeader{
		XID: xid, Program: rpc.ProgramNFS, Version: version, Proc: proc,
		Cred: rpc.OpaqueAuth{Flavor: rpc.AuthSys, Body: cred.Bytes()},
		Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		Args: args,
	})
	return e.Bytes()
}

// replyMessage encodes the RPC accepted/success reply message carrying
// res.
func replyMessage(xid uint32, res []byte) []byte {
	e := xdr.NewEncoder(len(res) + 64)
	rpc.EncodeReply(e, &rpc.ReplyHeader{
		XID: xid, ReplyStat: rpc.MsgAccepted, AcceptStat: rpc.Success,
		Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone}, Results: res,
	})
	return e.Bytes()
}

// Message implements Tap: it frames msg into packets at once.
func (w *WireTap) Message(t float64, proto byte, port uint16, fromClient bool, msg []byte) {
	src, dst := w.clientIP, w.serverIP
	sport, dport := port, uint16(NFSPort)
	if !fromClient {
		src, dst = dst, src
		sport, dport = dport, sport
	}
	if proto == core.ProtoUDP {
		w.ipid++
		for _, frame := range wire.FragmentUDP(src, dst, sport, dport, w.ipid, msg, w.MTU) {
			w.Sink.Packet(t, frame)
		}
		return
	}
	// TCP: open the connection lazily with a SYN in each direction so
	// stream reassembly has a base sequence.
	if !w.synSent {
		w.synSent = true
		w.Sink.Packet(t, wire.BuildTCP(w.clientIP, w.serverIP, port, NFSPort, 0,
			w.cliSeq, 0, wire.FlagSYN, nil))
		w.Sink.Packet(t, wire.BuildTCP(w.serverIP, w.clientIP, NFSPort, port, 0,
			w.srvSeq, w.cliSeq+1, wire.FlagSYN|wire.FlagACK, nil))
		w.cliSeq++
		w.srvSeq++
	}
	marked := rpc.MarkRecord(msg)
	// Segment to MSS-sized chunks.
	mss := w.MTU - wire.IPv4HeaderLen - wire.TCPHeaderLen
	for off := 0; off < len(marked); off += mss {
		end := off + mss
		if end > len(marked) {
			end = len(marked)
		}
		seg := marked[off:end]
		w.ipid++
		if fromClient {
			w.Sink.Packet(t, wire.BuildTCP(src, dst, sport, dport, w.ipid,
				w.cliSeq, w.srvSeq, wire.FlagACK|wire.FlagPSH, seg))
			w.cliSeq += uint32(len(seg))
		} else {
			w.Sink.Packet(t, wire.BuildTCP(src, dst, sport, dport, w.ipid,
				w.srvSeq, w.cliSeq, wire.FlagACK|wire.FlagPSH, seg))
			w.srvSeq += uint32(len(seg))
		}
	}
}

// EnableWireTap attaches a tap to the client: records continue to flow
// to its Sink, and the encoded messages flow to the tap.
func (c *Client) EnableWireTap(tap Tap) {
	c.tap = tap
}
