package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/wire/sock"
	"repro/internal/xdr"
)

// NetClient is the socket twin of Client: it issues NFS calls to a
// server.NetServer (or anything speaking ONC RPC over record-marked
// TCP) across a real connection. Calls from multiple goroutines share
// one connection and pipeline naturally; a reader loop matches replies
// back to callers by xid. This is the transport under nfsbench's
// simulated clients and the loopback integration tests.
type NetClient struct {
	// Version selects the protocol spoken: nfs.V2 or nfs.V3. Callers
	// use the v3 procedure vocabulary; v2 clients translate, mirroring
	// the in-process Client.
	Version  uint32
	UID, GID uint32

	conn net.Conn
	rc   *wire.RecordConn

	// wmu serializes record writes and guards the encoders each call
	// is built in: the call header, then the args, in one encoder.
	wmu        sync.Mutex
	call, cred xdr.Encoder

	mu       sync.Mutex // guards xid, inflight, err
	xid      uint32
	inflight map[uint32]*netCall
	err      error

	// Unmatched counts replies whose xid matched no outstanding call.
	Unmatched atomic.Int64
}

type netCall struct {
	version uint32
	proc    uint32
	done    chan netReply
}

type netReply struct {
	res any
	err error
}

// ErrClientClosed reports a call issued after the connection died.
var ErrClientClosed = errors.New("client: connection closed")

// DialNFS connects to an NFS-over-TCP server. version is nfs.V2 or
// nfs.V3; uid/gid populate the AUTH_SYS credential on every call.
func DialNFS(addr string, version uint32, uid, gid uint32) (*NetClient, error) {
	if version != nfs.V2 && version != nfs.V3 {
		return nil, fmt.Errorf("client: unsupported NFS version %d", version)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &NetClient{
		Version:  version,
		UID:      uid,
		GID:      gid,
		conn:     conn,
		rc:       sock.NewRecordConn(conn),
		inflight: make(map[uint32]*netCall),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; outstanding calls fail with
// ErrClientClosed (or the transport error that killed the socket).
func (c *NetClient) Close() error {
	err := c.conn.Close()
	c.fail(ErrClientClosed)
	return err
}

// fail marks the client dead and fails every outstanding call.
func (c *NetClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.inflight
	c.inflight = make(map[uint32]*netCall)
	c.mu.Unlock()
	for _, call := range pending {
		call.done <- netReply{err: err}
	}
}

func (c *NetClient) readLoop() {
	for {
		msg, err := c.rc.ReadRecord()
		if err != nil {
			c.fail(fmt.Errorf("client: read: %w", err))
			return
		}
		dec, err := rpc.Decode(msg)
		if err != nil || dec.Type != rpc.Reply {
			c.fail(fmt.Errorf("client: bad reply message: %v", err))
			return
		}
		h := dec.Reply
		c.mu.Lock()
		call := c.inflight[h.XID]
		delete(c.inflight, h.XID)
		c.mu.Unlock()
		if call == nil {
			c.Unmatched.Add(1)
			continue
		}
		call.done <- decodeReply(call.version, call.proc, h)
	}
}

func decodeReply(version, proc uint32, h *rpc.ReplyHeader) netReply {
	if h.ReplyStat != rpc.MsgAccepted {
		return netReply{err: fmt.Errorf("client: rpc denied (stat %d)", h.ReplyStat)}
	}
	if h.AcceptStat != rpc.Success {
		return netReply{err: fmt.Errorf("client: rpc accept stat %d", h.AcceptStat)}
	}
	var res any
	var err error
	if version == nfs.V3 {
		res, err = nfs.DecodeRes3(proc, h.Results)
	} else {
		res, err = nfs.DecodeRes2(proc, h.Results)
	}
	if err != nil {
		return netReply{err: fmt.Errorf("client: decoding results: %w", err)}
	}
	return netReply{res: res}
}

// Call issues one procedure in the client's own version vocabulary and
// blocks until the reply arrives. It is safe to call from many
// goroutines; concurrent calls pipeline on the shared connection.
//
// Each reply is read into a fresh record that the decoded results
// alias and that callers keep (nfsbench holds LOOKUP and CREATE handles
// for a whole run), so replies are never read into a reused buffer.
func (c *NetClient) Call(proc uint32, args any) (any, error) {
	call := &netCall{version: c.Version, proc: proc, done: make(chan netReply, 1)}
	c.wmu.Lock()
	err := c.send(call, args)
	c.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	r := <-call.done
	return r.res, r.err
}

// send registers call under a fresh xid and writes it. The caller holds
// wmu.
func (c *NetClient) send(call *netCall, args any) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.xid++
	xid := c.xid
	c.inflight[xid] = call
	c.mu.Unlock()

	c.cred.Reset()
	(&rpc.AuthSysBody{MachineName: "nfsbench", UID: c.UID, GID: c.GID}).Encode(&c.cred)
	e := &c.call
	e.Reset()
	rpc.EncodeCall(e, &rpc.CallHeader{
		XID:     xid,
		Program: rpc.ProgramNFS,
		Version: call.version,
		Proc:    call.proc,
		Cred:    rpc.OpaqueAuth{Flavor: rpc.AuthSys, Body: c.cred.Bytes()},
		Verf:    rpc.OpaqueAuth{Flavor: rpc.AuthNone},
	})
	var err error
	if call.version == nfs.V3 {
		err = nfs.EncodeArgs3(e, call.proc, args)
	} else {
		err = nfs.EncodeArgs2(e, call.proc, args)
	}
	if err != nil {
		c.forget(xid)
		return err
	}
	err = c.rc.WriteRecord(e.Bytes())
	if cap(e.Bytes()) > wire.MaxReuse {
		*e = xdr.Encoder{}
	}
	if err != nil {
		c.forget(xid)
		c.fail(err)
	}
	return err
}

// forget drops a call that never reached the wire.
func (c *NetClient) forget(xid uint32) {
	c.mu.Lock()
	delete(c.inflight, xid)
	c.mu.Unlock()
}

// callV3 issues a call expressed in v3 vocabulary, translating args for
// v2 connections the same way the in-process Client does.
func (c *NetClient) callV3(v3proc uint32, v3args any) (any, error) {
	proc, args := v3proc, v3args
	if c.Version == nfs.V2 {
		proc, args = translateV2(v3proc, v3args)
	}
	return c.Call(proc, args)
}

// StatusOf extracts the NFS status from any decoded result struct; nil
// results (NULL) report OK.
func StatusOf(res any) uint32 {
	switch r := res.(type) {
	case nil:
		return nfs.OK
	case *nfs.GetattrRes3:
		return r.Status
	case *nfs.SetattrRes3:
		return r.Status
	case *nfs.LookupRes3:
		return r.Status
	case *nfs.AccessRes3:
		return r.Status
	case *nfs.ReadRes3:
		return r.Status
	case *nfs.WriteRes3:
		return r.Status
	case *nfs.CreateRes3:
		return r.Status
	case *nfs.RemoveRes3:
		return r.Status
	case *nfs.RenameRes3:
		return r.Status
	case *nfs.ReaddirRes3:
		return r.Status
	case *nfs.FsstatRes3:
		return r.Status
	case *nfs.CommitRes3:
		return r.Status
	case *nfs.AttrStatRes2:
		return r.Status
	case *nfs.DirOpRes2:
		return r.Status
	case *nfs.StatusRes2:
		return r.Status
	case *nfs.ReadRes2:
		return r.Status
	case *nfs.ReaddirRes2:
		return r.Status
	case *nfs.StatfsRes2:
		return r.Status
	default:
		return nfs.ErrIO
	}
}

// --- Benchmark-grade operation helpers (v3 vocabulary, any version) ---

// NetGetattr fetches attributes and returns the NFS status.
func (c *NetClient) NetGetattr(fh nfs.FH) (uint32, error) {
	res, err := c.callV3(nfs.V3Getattr, &nfs.GetattrArgs3{FH: fh})
	if err != nil {
		return 0, err
	}
	return StatusOf(res), nil
}

// NetAccess checks permissions (GETATTR on v2).
func (c *NetClient) NetAccess(fh nfs.FH) (uint32, error) {
	res, err := c.callV3(nfs.V3Access, &nfs.AccessArgs3{FH: fh, Access: 0x3F})
	if err != nil {
		return 0, err
	}
	return StatusOf(res), nil
}

// NetLookup resolves name in dir, returning the handle on success.
func (c *NetClient) NetLookup(dir nfs.FH, name string) (nfs.FH, uint32, error) {
	res, err := c.callV3(nfs.V3Lookup, &nfs.LookupArgs3{Dir: dir, Name: name})
	if err != nil {
		return nil, 0, err
	}
	switch r := res.(type) {
	case *nfs.LookupRes3:
		return r.FH, r.Status, nil
	case *nfs.DirOpRes2:
		return r.FH, r.Status, nil
	}
	return nil, nfs.ErrIO, nil
}

// NetRead reads count bytes at offset and returns the status.
func (c *NetClient) NetRead(fh nfs.FH, offset uint64, count uint32) (uint32, error) {
	_, _, status, err := c.NetReadData(fh, offset, count)
	return status, err
}

// NetReadData is NetRead that also returns the reply's byte count and
// data. The data aliases the reply record, which the client never
// reuses. A v2 reply carries no separate count, so n is then the data
// length.
func (c *NetClient) NetReadData(fh nfs.FH, offset uint64, count uint32) (n uint32, data []byte, status uint32, err error) {
	res, err := c.callV3(nfs.V3Read, &nfs.ReadArgs3{FH: fh, Offset: offset, Count: count})
	if err != nil {
		return 0, nil, 0, err
	}
	switch r := res.(type) {
	case *nfs.ReadRes3:
		return r.Count, r.Data, r.Status, nil
	case *nfs.ReadRes2:
		return uint32(len(r.Data)), r.Data, r.Status, nil
	}
	return 0, nil, nfs.ErrIO, nil
}

// NetWrite writes count filler bytes at offset and returns the status.
func (c *NetClient) NetWrite(fh nfs.FH, offset uint64, count uint32) (uint32, error) {
	_, status, err := c.NetWriteCount(fh, offset, count)
	return status, err
}

// NetWriteCount is NetWrite that also returns the byte count the server
// reports written. A v2 reply carries no count: a successful v2 WRITE
// writes all of its data, so n is then count.
func (c *NetClient) NetWriteCount(fh nfs.FH, offset uint64, count uint32) (n uint32, status uint32, err error) {
	res, err := c.callV3(nfs.V3Write, &nfs.WriteArgs3{
		FH: fh, Offset: offset, Count: count, Stable: nfs.FileSync,
		Data: server.Filler(int(count))})
	if err != nil {
		return 0, 0, err
	}
	switch r := res.(type) {
	case *nfs.WriteRes3:
		return r.Count, r.Status, nil
	case *nfs.AttrStatRes2:
		if r.Status == nfs.OK {
			n = count
		}
		return n, r.Status, nil
	}
	return 0, nfs.ErrIO, nil
}

// NetCreate makes name in dir, returning the new handle.
func (c *NetClient) NetCreate(dir nfs.FH, name string) (nfs.FH, uint32, error) {
	attr := nfs.Sattr{UID: &c.UID, GID: &c.GID}
	res, err := c.callV3(nfs.V3Create, &nfs.CreateArgs3{
		Where: nfs.DirOpArgs3{Dir: dir, Name: name}, Attr: attr})
	if err != nil {
		return nil, 0, err
	}
	switch r := res.(type) {
	case *nfs.CreateRes3:
		return r.FH, r.Status, nil
	case *nfs.DirOpRes2:
		return r.FH, r.Status, nil
	}
	return nil, nfs.ErrIO, nil
}

// NetTruncate sets the file size.
func (c *NetClient) NetTruncate(fh nfs.FH, size uint64) (uint32, error) {
	res, err := c.callV3(nfs.V3Setattr, &nfs.SetattrArgs3{FH: fh,
		Attr: nfs.Sattr{Size: &size}})
	if err != nil {
		return 0, err
	}
	return StatusOf(res), nil
}

// NetRemove unlinks name in dir.
func (c *NetClient) NetRemove(dir nfs.FH, name string) (uint32, error) {
	res, err := c.callV3(nfs.V3Remove, &nfs.DirOpArgs3{Dir: dir, Name: name})
	if err != nil {
		return 0, err
	}
	return StatusOf(res), nil
}
