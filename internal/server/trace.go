package server

import (
	"encoding/binary"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
)

// Passive trace tap: when a NetServer is given a trace callback, every
// successfully dispatched NFS procedure emits one call record and one
// reply record. The connection's nfs.Decoder fills their NFS fields
// from the raw XDR bodies (CallRecord, ReplyRecord), the same builders
// internal/capture runs on sniffed packets; this file adds only the
// envelope (times, connection endpoints, xid, version, credentials).
// The server is its own mirror port: nfsbench traffic becomes a live
// trace that cmd/nfsmond can tail, reproducing the paper's
// passive-tracing deployment shape without a pcap in the loop.
//
// The callback runs on per-connection goroutines, so it must be safe
// for concurrent use. Record times are wall-clock Unix seconds; reply
// times are taken after the procedure executes, so call/reply pairs are
// ordered and carry the real service latency. Records from different
// connections may interleave slightly out of time order (each
// goroutine stamps then emits); the Joiner's matching is key-based and
// tolerates that jitter.

// connID caches one connection's endpoints in record terms.
type connID struct {
	client, server uint32
	port           uint16
}

func newConnID(conn net.Conn) connID {
	c, p := addrIPPort(conn.RemoteAddr())
	s, _ := addrIPPort(conn.LocalAddr())
	return connID{client: c, server: s, port: p}
}

// addrIPPort extracts a host-order IPv4 and port from a net.Addr;
// non-TCP or non-IPv4 addresses yield zero (records still join — the
// key is (client, port, xid) and stays consistent per connection).
func addrIPPort(a net.Addr) (uint32, uint16) {
	ta, ok := a.(*net.TCPAddr)
	if !ok {
		return 0, 0
	}
	ip4 := ta.IP.To4()
	if ip4 == nil {
		return 0, uint16(ta.Port)
	}
	return binary.BigEndian.Uint32(ip4), uint16(ta.Port)
}

// traceNow stamps a record with wall-clock seconds.
func traceNow() float64 { return float64(time.Now().UnixNano()) / 1e9 }

// traceCall builds the call record for one decoded RPC call, decoding
// its args and credential through the connection's storage. It returns
// nil when the call body does not parse (the dispatch path already
// rejected it).
func (c *connBuffers) traceCall(t float64, id connID, h *rpc.CallHeader) *core.Record {
	rec := &core.Record{
		Time: t, Kind: core.KindCall,
		Client: id.client, Port: id.port,
		Server: id.server, Proto: core.ProtoTCP,
		XID: h.XID, Version: h.Version,
	}
	if c.nfs.CallRecord(rec, h.Version, h.Proc, h.Args) != nil {
		return nil
	}
	if h.Cred.Flavor == rpc.AuthSys && rpc.DecodeAuthSysInto(&c.auth, h.Cred.Body) == nil {
		rec.UID, rec.GID = c.auth.UID, c.auth.GID
	}
	return rec
}

// traceReply builds the reply record for one encoded result body,
// decoding it through the connection's storage.
func (c *connBuffers) traceReply(t float64, id connID, h *rpc.CallHeader, results []byte) *core.Record {
	rec := &core.Record{
		Time: t, Kind: core.KindReply,
		Client: id.client, Port: id.port,
		Server: id.server, Proto: core.ProtoTCP,
		XID: h.XID, Version: h.Version,
	}
	if c.nfs.ReplyRecord(rec, h.Version, h.Proc, results) != nil {
		return nil
	}
	return rec
}
