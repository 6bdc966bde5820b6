package client

import (
	"repro/internal/core"
	"repro/internal/nfs"
)

// Record construction: the client encodes each call and each reply
// once through the real wire codecs. The client's nfs.Decoder builds
// the records from those bytes with CallRecord and ReplyRecord, the
// same builders the sniffer runs on captured packets, and an attached
// Tap receives the same bytes inside their RPC message. So the records
// the client emits are exactly what a sniffer would extract from its
// packets, which keeps the fast record-level pipeline byte-faithful to
// the wire-level one.

// sendCall encodes args, emits the call record and hands the call
// message to the tap.
func (c *Client) sendCall(t float64, version, proc uint32, args any) {
	e := &c.msg
	e.Reset()
	if err := nfs.EncodeArgs(version, e, proc, args); err != nil {
		panic("client: encoding own call failed: " + err.Error())
	}
	rec := c.envelope(t, core.KindCall, version)
	rec.UID, rec.GID = c.UID, c.GID
	if err := c.dec.CallRecord(rec, version, proc, e.Bytes()); err != nil {
		panic("client: re-parsing own call failed: " + err.Error())
	}
	// Wire size estimate: eth+ip+transport+rpc header ≈ 150 bytes plus
	// the encoded body (write data rides in the body already).
	c.Sink.Record(rec, 150+e.Len())
	if c.tap != nil {
		c.tap.Message(t, c.Proto, c.Port, true, callMessage(t, c.xid, version, proc, c.UID, c.GID, e.Bytes()))
	}
}

// sendReply encodes res, emits the reply record and hands the reply
// message to the tap.
func (c *Client) sendReply(t float64, version, proc uint32, res any) {
	e := &c.msg
	e.Reset()
	if err := nfs.EncodeRes(version, e, proc, res); err != nil {
		panic("client: encoding reply failed: " + err.Error())
	}
	rec := c.envelope(t, core.KindReply, version)
	if err := c.dec.ReplyRecord(rec, version, proc, e.Bytes()); err != nil {
		panic("client: re-parsing reply failed: " + err.Error())
	}
	c.Sink.Record(rec, 150+e.Len())
	if c.tap != nil {
		c.tap.Message(t, c.Proto, c.Port, false, replyMessage(c.xid, e.Bytes()))
	}
}

// envelope starts a record of the current xid between this client and
// its server.
func (c *Client) envelope(t float64, kind byte, version uint32) *core.Record {
	return &core.Record{
		Time: t, Kind: kind,
		Client: c.IP, Port: c.Port, Server: c.ServerIP, Proto: c.Proto,
		XID: c.xid, Version: version,
	}
}
