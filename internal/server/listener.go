package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/wire"
	"repro/internal/wire/sock"
	"repro/internal/xdr"
)

// NetServer exposes a Server over real TCP sockets speaking ONC RPC
// with record marking — the same bytes a kernel NFS/TCP client would
// put on the wire. Each accepted connection gets a reader goroutine
// that decodes calls, executes them against the shared Server, and
// writes replies back in call order. Dispatch is fully parallel across
// connections: Server's counters are atomic and vfs.FS carries its own
// two-level locking, so concurrent procedures serialize only on the
// inodes they touch.
//
// This is the load-bearing end of nfsbench and of the loopback
// integration tests: everything above the TCP socket is the production
// decode → dispatch → encode path.
type NetServer struct {
	srv *Server
	ln  net.Listener

	// trace, when non-nil, receives one call and one reply record per
	// dispatched NFS procedure (see trace.go). Set at Listen time and
	// never mutated, so per-connection goroutines read it without
	// synchronization; the callback itself must be concurrency-safe.
	trace func(*core.Record)

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	wg     sync.WaitGroup
	closed atomic.Bool

	calls  atomic.Int64
	badRPC atomic.Int64
}

// Listen starts serving srv on addr ("127.0.0.1:0" if empty) and
// returns once the listener is bound.
func Listen(srv *Server, addr string) (*NetServer, error) {
	return ListenTraced(srv, addr, nil)
}

// ListenTraced is Listen with a passive trace tap: every dispatched
// NFS procedure emits a call and a reply record to trace, built the
// same way the capture sniffer builds them from packets. trace runs on
// per-connection goroutines and must be safe for concurrent use; nil
// disables the tap.
func ListenTraced(srv *Server, addr string, trace func(*core.Record)) (*NetServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ns := &NetServer{srv: srv, ln: ln, trace: trace, conns: make(map[net.Conn]struct{})}
	ns.wg.Add(1)
	go ns.acceptLoop()
	return ns, nil
}

// Addr reports the bound address, e.g. "127.0.0.1:46231".
func (ns *NetServer) Addr() string { return ns.ln.Addr().String() }

// Calls reports the number of procedures executed.
func (ns *NetServer) Calls() int64 { return ns.calls.Load() }

// BadRPC reports the number of connections dropped for unparseable RPC.
func (ns *NetServer) BadRPC() int64 { return ns.badRPC.Load() }

// Close stops accepting, closes every connection, and waits for the
// per-connection goroutines to drain.
func (ns *NetServer) Close() error {
	ns.closed.Store(true)
	err := ns.ln.Close()
	ns.connMu.Lock()
	for conn := range ns.conns {
		conn.Close()
	}
	ns.connMu.Unlock()
	ns.wg.Wait()
	return err
}

func (ns *NetServer) acceptLoop() {
	defer ns.wg.Done()
	for {
		conn, err := ns.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ns.connMu.Lock()
		if ns.closed.Load() {
			ns.connMu.Unlock()
			conn.Close()
			return
		}
		ns.conns[conn] = struct{}{}
		ns.connMu.Unlock()
		ns.wg.Add(1)
		go ns.serveConn(conn)
	}
}

func (ns *NetServer) serveConn(conn net.Conn) {
	defer ns.wg.Done()
	defer func() {
		ns.connMu.Lock()
		delete(ns.conns, conn)
		ns.connMu.Unlock()
		conn.Close()
	}()
	var id connID
	if ns.trace != nil {
		id = newConnID(conn)
	}
	ns.serve(sock.NewRecordConn(conn), id, &connBuffers{})
}

// connBuffers is what one connection reuses from call to call: the
// buffer each call record is read into, the decoders its RPC header,
// NFS args and credential are decoded into, and the encoder each reply
// is built in. A call's decoded header and args alias the call buffer
// or the decoders and are dead once its reply is written; neither the
// Server, vfs nor the trace tap keeps them (vfs takes counts, names are
// copied into strings, the tap interns handles).
type connBuffers struct {
	call  []byte
	reply xdr.Encoder
	rpc   rpc.Decoder
	nfs   nfs.Decoder
	auth  rpc.AuthSysBody
}

// serve answers calls in order until the stream ends or goes bad.
func (ns *NetServer) serve(rc *wire.RecordConn, id connID, bufs *connBuffers) {
	for {
		msg, err := rc.ReadRecordInto(bufs.call)
		if err != nil {
			return // EOF or peer gone
		}
		bufs.reply.Reset()
		if err := ns.handle(bufs, msg, id); err != nil {
			ns.badRPC.Add(1)
			return // garbage stream: drop the connection
		}
		if err := rc.WriteRecord(bufs.reply.Bytes()); err != nil {
			return
		}
		bufs.call = wire.Recycle(msg)
		if cap(bufs.reply.Bytes()) > wire.MaxReuse {
			bufs.reply = xdr.Encoder{}
		}
	}
}

// handle executes one RPC call message, decoding it through c's
// decoders, and encodes the reply into c.reply, which must be empty. A
// non-nil error means the message was not a well-formed call and the
// connection cannot be trusted to stay in sync.
func (ns *NetServer) handle(c *connBuffers, msg []byte, id connID) error {
	e := &c.reply
	dec, err := c.rpc.Decode(msg)
	if err != nil {
		return err
	}
	if dec.Type != rpc.Call {
		return fmt.Errorf("server: unexpected reply message on server socket")
	}
	h := dec.Call
	reply := rpc.ReplyHeader{XID: h.XID, ReplyStat: rpc.MsgAccepted}
	switch {
	case h.Program != rpc.ProgramNFS:
		reply.AcceptStat = rpc.ProgUnavail
	case h.Version != nfs.V2 && h.Version != nfs.V3:
		reply.AcceptStat = rpc.ProgMismatch
	default:
		args, err := c.nfs.DecodeArgs(h.Version, h.Proc, h.Args)
		if err != nil {
			reply.AcceptStat = argsStat(err)
			break
		}
		var callRec *core.Record
		if ns.trace != nil {
			// Decodes the same body into the same structs again, so
			// args keep their values.
			callRec = c.traceCall(traceNow(), id, h)
		}
		res := ns.srv.Handle(h.Version, h.Proc, args)
		ns.calls.Add(1)
		// The results follow the success header in the same encoder;
		// if they fail to encode, start over with SystemErr.
		reply.AcceptStat = rpc.Success
		rpc.EncodeReply(e, &reply)
		hdrLen := e.Len()
		if err := nfs.EncodeRes(h.Version, e, h.Proc, res); err != nil {
			e.Reset()
			reply.AcceptStat = rpc.SystemErr
			break
		}
		// The tap emits the pair together so no call ever surfaces
		// without its reply (an unmatched call would read as packet
		// loss to the analyses).
		if callRec != nil {
			ns.trace(callRec)
			if rr := c.traceReply(traceNow(), id, h, e.Bytes()[hdrLen:]); rr != nil {
				ns.trace(rr)
			}
		}
		return nil
	}
	rpc.EncodeReply(e, &reply)
	return nil
}

// argsStat is the accept status of a call whose args failed to decode
// with err (RFC 5531): PROC_UNAVAIL for a procedure the codec does not
// model, v3 MKNOD's among them, and GARBAGE_ARGS for a body it cannot
// parse.
func argsStat(err error) uint32 {
	if errors.Is(err, nfs.ErrBadProc) {
		return rpc.ProcUnavail
	}
	return rpc.GarbageArgs
}
