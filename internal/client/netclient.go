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

	wmu sync.Mutex // serializes record writes

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
		rc:       wire.NewRecordConn(conn),
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
func (c *NetClient) Call(proc uint32, args any) (any, error) {
	argEnc := xdr.NewEncoder(256)
	var err error
	if c.Version == nfs.V3 {
		err = nfs.EncodeArgs3(argEnc, proc, args)
	} else {
		err = nfs.EncodeArgs2(argEnc, proc, args)
	}
	if err != nil {
		return nil, err
	}

	call := &netCall{version: c.Version, proc: proc, done: make(chan netReply, 1)}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.xid++
	xid := c.xid
	c.inflight[xid] = call
	c.mu.Unlock()

	cred := xdr.NewEncoder(64)
	(&rpc.AuthSysBody{MachineName: "nfsbench", UID: c.UID, GID: c.GID}).Encode(cred)
	e := xdr.NewEncoder(128 + argEnc.Len())
	rpc.EncodeCall(e, &rpc.CallHeader{
		XID:     xid,
		Program: rpc.ProgramNFS,
		Version: c.Version,
		Proc:    proc,
		Cred:    rpc.OpaqueAuth{Flavor: rpc.AuthSys, Body: cred.Bytes()},
		Verf:    rpc.OpaqueAuth{Flavor: rpc.AuthNone},
		Args:    argEnc.Bytes(),
	})

	c.wmu.Lock()
	werr := c.rc.WriteRecord(e.Bytes())
	c.wmu.Unlock()
	if werr != nil {
		c.mu.Lock()
		delete(c.inflight, xid)
		c.mu.Unlock()
		c.fail(werr)
		return nil, werr
	}
	r := <-call.done
	return r.res, r.err
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
	res, err := c.callV3(nfs.V3Read, &nfs.ReadArgs3{FH: fh, Offset: offset, Count: count})
	if err != nil {
		return 0, err
	}
	return StatusOf(res), nil
}

// NetWrite writes count filler bytes at offset and returns the status.
func (c *NetClient) NetWrite(fh nfs.FH, offset uint64, count uint32) (uint32, error) {
	res, err := c.callV3(nfs.V3Write, &nfs.WriteArgs3{
		FH: fh, Offset: offset, Count: count, Stable: nfs.FileSync,
		Data: server.Filler(int(count))})
	if err != nil {
		return 0, err
	}
	return StatusOf(res), nil
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
