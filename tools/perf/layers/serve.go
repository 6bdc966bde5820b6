package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xdr"
	"repro/tools/perf/job"
)

// benchOp is one drawn operation of the nfsbench mix.
type benchOp struct {
	proc uint32
	file int
	off  uint64
}

// drawOps reproduces nfsbench's seed-determined op stream for client
// idx (one outstanding call per connection, so one draw stream).
func drawOps(sv *job.Serve, seed int64, idx, n int) []benchOp {
	rng := rand.New(rand.NewSource(seed + int64(idx)*1000003))
	blocks := max(int(sv.FileSize/sv.Xfer), 1)
	zipfFile := workload.NewZipf(1.2, 1, sv.Files)
	zipfBlock := workload.NewZipf(1.2, 1, blocks)
	meta := [3]uint32{nfs.V3Getattr, nfs.V3Lookup, nfs.V3Access}
	ops := make([]benchOp, n)
	for i := range ops {
		var o benchOp
		mix := rng.Intn(100)
		switch {
		case mix < sv.ReadPct:
			o.proc = nfs.V3Read
		case mix < sv.ReadPct+sv.WritePct:
			o.proc = nfs.V3Write
		default:
			o.proc = meta[rng.Intn(3)]
		}
		o.file = zipfFile.Rank(rng.Float64())
		if o.proc == nfs.V3Read || o.proc == nfs.V3Write {
			o.off = uint64(zipfBlock.Rank(rng.Float64())) * sv.Xfer
		}
		ops[i] = o
	}
	return ops
}

func benchFileName(i int) string { return fmt.Sprintf("bench%05d", i) }

// populate creates the benchmark files on a fresh server the way
// nfsbench's set-up does and returns their handles.
func populate(sv *job.Serve) (*server.Server, []nfs.FH, error) {
	srv := server.New(vfs.New())
	root := srv.FS.RootFH()
	fhs := make([]nfs.FH, sv.Files)
	for i := range fhs {
		res := srv.HandleV3(nfs.V3Create, &nfs.CreateArgs3{
			Where: nfs.DirOpArgs3{Dir: root, Name: benchFileName(i)}}).(*nfs.CreateRes3)
		if res.Status != nfs.OK {
			return nil, nil, fmt.Errorf("create %s: status %d", benchFileName(i), res.Status)
		}
		size := sv.FileSize
		if st := client.StatusOf(srv.HandleV3(nfs.V3Setattr, &nfs.SetattrArgs3{
			FH: res.FH, Attr: nfs.Sattr{Size: &size}})); st != nfs.OK {
			return nil, nil, fmt.Errorf("truncate %s: status %d", benchFileName(i), st)
		}
		fhs[i] = res.FH
	}
	return srv, fhs, nil
}

// args builds the v3 argument struct NetClient's op helpers build.
func (o benchOp) args(sv *job.Serve, root nfs.FH, fhs []nfs.FH) any {
	fh := fhs[o.file]
	switch o.proc {
	case nfs.V3Read:
		return &nfs.ReadArgs3{FH: fh, Offset: o.off, Count: uint32(sv.Xfer)}
	case nfs.V3Write:
		return &nfs.WriteArgs3{FH: fh, Offset: o.off, Count: uint32(sv.Xfer),
			Stable: nfs.FileSync, Data: server.Filler(int(sv.Xfer))}
	case nfs.V3Getattr:
		return &nfs.GetattrArgs3{FH: fh}
	case nfs.V3Lookup:
		return &nfs.LookupArgs3{Dir: root, Name: benchFileName(o.file)}
	default:
		return &nfs.AccessArgs3{FH: fh, Access: 0x3F}
	}
}

// vfsOp makes the vfs calls server.HandleV3 makes for o.
func vfsOp(fs *vfs.FS, o benchOp, sv *job.Serve, root nfs.FH, fhs []nfs.FH) error {
	if o.proc == nfs.V3Lookup {
		dir, err := fs.GetFH(root)
		if err != nil {
			return err
		}
		ino, err := fs.Lookup(dir.ID, benchFileName(o.file))
		if err != nil {
			return err
		}
		fs.Attr(ino)
		fs.Attr(dir)
		return nil
	}
	ino, err := fs.GetFH(fhs[o.file])
	if err != nil {
		return err
	}
	switch o.proc {
	case nfs.V3Read:
		_, _, err = fs.Read(ino.ID, o.off, sv.Xfer)
	case nfs.V3Write:
		fs.Wcc(ino)
		_, err = fs.Write(ino.ID, o.off, sv.Xfer)
	}
	fs.Attr(ino)
	return err
}

// batchOps is how many operations one stage invocation processes, so
// that the two clock reads around it cost nothing per op.
const batchOps = 1024

// serve replays serve_read / serve_write: the same op stream pushed
// through one stage of the client/server stack at a time, then over a
// real loopback socket in this process.
func (t *tracer) serve() error {
	sv := t.job.Serve
	var ops []benchOp
	for i := 0; i < sv.T; i++ {
		ops = append(ops, drawOps(sv, t.job.Seed, i, sv.N/sv.T)...)
	}
	nops := int64(len(ops))
	srv, fhs, err := populate(sv)
	if err != nil {
		return err
	}
	srvVFS, vfsFHs, err := populate(sv) // a twin file system for the vfs-only stage
	if err != nil {
		return err
	}
	root := srv.FS.RootFH()

	stageNS := map[string]int64{}
	var wireBytes int64
	replay := t.rec.Start("replay", -1)
	stage := func(name string, parent int, fn func()) int {
		id := t.rec.Time(name, parent, func() int64 { fn(); return batchOps })
		stageNS[name] += t.rec.Spans[id].Dur()
		return id
	}
	a0 := mallocs()
	for lo := 0; lo+batchOps <= len(ops); lo += batchOps {
		batch := ops[lo : lo+batchOps]
		argv := make([]any, batchOps)
		for i, o := range batch {
			argv[i] = o.args(sv, root, fhs)
		}
		argBytes := make([][]byte, batchOps)
		stage("nfs.encode_args", replay, func() {
			for i, o := range batch {
				e := xdr.NewEncoder(256)
				if err == nil {
					err = nfs.EncodeArgs3(e, o.proc, argv[i])
				}
				argBytes[i] = e.Bytes()
			}
		})
		calls := make([][]byte, batchOps)
		stage("rpc.encode_call", replay, func() {
			for i, o := range batch {
				cred := xdr.NewEncoder(64)
				(&rpc.AuthSysBody{MachineName: "nfsbench", UID: 1000, GID: 100}).Encode(cred)
				e := xdr.NewEncoder(128 + len(argBytes[i]))
				rpc.EncodeCall(e, &rpc.CallHeader{
					XID: uint32(lo + i + 1), Program: rpc.ProgramNFS, Version: nfs.V3, Proc: o.proc,
					Cred: rpc.OpaqueAuth{Flavor: rpc.AuthSys, Body: cred.Bytes()},
					Verf: rpc.OpaqueAuth{Flavor: rpc.AuthNone},
					Args: argBytes[i],
				})
				calls[i] = e.Bytes()
			}
		})
		hdrs := make([]*rpc.CallHeader, batchOps)
		stage("rpc.decode_call", replay, func() {
			for i, msg := range calls {
				dec, derr := rpc.Decode(msg)
				if derr != nil {
					err = derr
					return
				}
				hdrs[i] = dec.Call
			}
		})
		if err != nil {
			return err
		}
		decoded := make([]any, batchOps)
		stage("nfs.decode_args", replay, func() {
			for i, h := range hdrs {
				a, derr := nfs.DecodeArgs3(h.Proc, h.Args)
				if derr != nil {
					err = derr
				}
				decoded[i] = a
			}
		})
		results := make([]any, batchOps)
		handleID := stage("server.handle", replay, func() {
			for i, h := range hdrs {
				results[i] = srv.HandleV3(h.Proc, decoded[i])
			}
		})
		stage("vfs.op", handleID, func() {
			for _, o := range batch {
				if verr := vfsOp(srvVFS.FS, o, sv, root, vfsFHs); verr != nil {
					err = verr
				}
			}
		})
		resBytes := make([][]byte, batchOps)
		stage("nfs.encode_res", replay, func() {
			for i, h := range hdrs {
				e := xdr.NewEncoder(256)
				if eerr := nfs.EncodeRes3(e, h.Proc, results[i]); eerr != nil {
					err = eerr
				}
				resBytes[i] = e.Bytes()
			}
		})
		replies := make([][]byte, batchOps)
		stage("rpc.encode_reply", replay, func() {
			for i, h := range hdrs {
				e := xdr.NewEncoder(256 + len(resBytes[i]))
				rpc.EncodeReply(e, &rpc.ReplyHeader{XID: h.XID, ReplyStat: rpc.MsgAccepted,
					AcceptStat: rpc.Success, Results: resBytes[i]})
				replies[i] = e.Bytes()
			}
		})
		// Both directions cross the record-marking layer: the call on
		// its way in, the reply on its way out.
		var stream bytes.Buffer
		size := 0
		for i := range calls {
			size += len(calls[i]) + len(replies[i]) + 8
		}
		stream.Grow(size) // so the stage times the framing, not the sink's growth
		stage("wire.write_record", replay, func() {
			rc := wire.NewRecordConn(&stream)
			for i := range calls {
				if werr := rc.WriteRecord(calls[i]); werr != nil {
					err = werr
				}
				if werr := rc.WriteRecord(replies[i]); werr != nil {
					err = werr
				}
			}
		})
		wireBytes += int64(stream.Len())
		stage("wire.read_record", replay, func() {
			rc := wire.NewRecordConn(&stream)
			for i := 0; i < 2*batchOps; i++ {
				if _, rerr := rc.ReadRecord(); rerr != nil {
					err = rerr
					return
				}
			}
		})
		replyHdrs := make([]*rpc.ReplyHeader, batchOps)
		stage("rpc.decode_reply", replay, func() {
			for i, msg := range replies {
				dec, derr := rpc.Decode(msg)
				if derr != nil {
					err = derr
					return
				}
				replyHdrs[i] = dec.Reply
			}
		})
		if err != nil {
			return err
		}
		stage("nfs.decode_res", replay, func() {
			for i, h := range replyHdrs {
				res, derr := nfs.DecodeRes3(batch[i].proc, h.Results)
				if derr != nil {
					err = derr
				} else if st := client.StatusOf(res); st != nfs.OK {
					err = fmt.Errorf("op %d: status %d", lo+i, st)
				}
			}
		})
		if err != nil {
			return err
		}
	}
	staged := nops / batchOps * batchOps
	if staged == 0 {
		return fmt.Errorf("serve: %d ops is less than one %d-op batch", nops, batchOps)
	}
	t.rec.End(replay, staged)
	t.m["server.allocs_per_op"] = ratio(float64(mallocs()-a0), float64(staged))
	t.m["wire.bytes_per_op"] = ratio(float64(wireBytes), float64(staged))
	var inproc float64
	for name, ns := range stageNS {
		per := float64(ns) / float64(staged)
		t.m[name+"_ns"] = per
		if name != "vfs.op" { // already inside server.handle
			inproc += per
		}
	}
	t.m["server.inproc_ns_per_op"] = inproc

	if err := t.vfsParallel(sv, ops); err != nil {
		return err
	}

	// Un-staged: nfsbench's closed loop in this process — T connections,
	// one outstanding call each, over a real loopback socket.
	t.rec.Pass = 1
	srv, fhs, err = populate(sv)
	if err != nil {
		return err
	}
	ns, err := server.Listen(srv, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ns.Close()
	clients := make([]*client.NetClient, sv.T)
	for i := range clients {
		cl, err := client.DialNFS(ns.Addr(), nfs.V3, uint32(1000+i), 100)
		if err != nil {
			return err
		}
		defer cl.Close()
		clients[i] = cl
	}
	errs := make([]error, sv.T)
	id := t.rec.Time("inproc", -1, func() int64 {
		var wg sync.WaitGroup
		per := len(ops) / sv.T
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *client.NetClient) {
				defer wg.Done()
				for _, o := range ops[i*per : (i+1)*per] {
					if errs[i] = netOp(cl, o, sv, root, fhs); errs[i] != nil {
						return
					}
				}
			}(i, cl)
		}
		wg.Wait()
		return nops
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	t.out.InprocWallS = float64(t.rec.Spans[id].Dur()) / 1e9
	return nil
}

// netOp issues o over the socket the way nfsbench's runner does.
func netOp(cl *client.NetClient, o benchOp, sv *job.Serve, root nfs.FH, fhs []nfs.FH) error {
	var status uint32
	var err error
	fh := fhs[o.file]
	switch o.proc {
	case nfs.V3Read:
		status, err = cl.NetRead(fh, o.off, uint32(sv.Xfer))
	case nfs.V3Write:
		status, err = cl.NetWrite(fh, o.off, uint32(sv.Xfer))
	case nfs.V3Getattr:
		status, err = cl.NetGetattr(fh)
	case nfs.V3Lookup:
		_, status, err = cl.NetLookup(root, benchFileName(o.file))
	default:
		status, err = cl.NetAccess(fh)
	}
	if err == nil && status != nfs.OK {
		err = fmt.Errorf("proc %d: status %d", o.proc, status)
	}
	return err
}

// vfsParallel runs the op stream's vfs calls on one goroutine, then
// split across two on a fresh file system: the speed-up the inode
// locking allows on this box's cores.
func (t *tracer) vfsParallel(sv *job.Serve, ops []benchOp) error {
	run := func(goroutines int) (time.Duration, error) {
		srv, fhs, err := populate(sv)
		if err != nil {
			return 0, err
		}
		root := srv.FS.RootFH()
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(ops); i += goroutines {
					if err := vfsOp(srv.FS, ops[i], sv, root, fhs); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		d := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return d, nil
	}
	one, err := run(1)
	if err != nil {
		return err
	}
	two, err := run(2)
	if err != nil {
		return err
	}
	t.m["vfs.parallel_speedup"] = ratio(float64(one), float64(two))
	return nil
}
