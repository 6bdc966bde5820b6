package client

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/xdr"
)

// Client simulates one NFS client host: it turns file-level operations
// into timed NFS calls against a simulated server, maintains the
// weakly-consistent attribute/data caches that make NFS server
// workloads what they are, and dispatches calls through an nfsiod pool.
//
// All times are float seconds since the trace epoch. Methods take the
// operation's start time and return the time the client observed the
// reply, so callers can sequence dependent operations.
type Client struct {
	IP       uint32
	Port     uint16
	UID, GID uint32
	Version  uint32 // nfs.V2 or nfs.V3
	Proto    byte   // core.ProtoUDP or core.ProtoTCP

	Server   *server.Server
	ServerIP uint32
	Sink     Sink
	Pool     *Pool

	// RTT is the base call→reply latency; a small exponential jitter is
	// added per call.
	RTT float64
	// AttrTimeout is the attribute-cache validity window. Real clients
	// use 3–60s; 30s is the common default.
	AttrTimeout float64
	// XferSize is the read/write transfer size (rsize/wsize). 8 KB was
	// the v2 limit and a common v3 default; fast v3 clients used 32 KB.
	XferSize uint64

	rng *rand.Rand
	xid uint32
	tap Tap
	msg xdr.Encoder // the call or reply being sent, reused
	dec nfs.Decoder // re-parses msg into the record emitted

	attrs map[string]*attrEntry
	data  map[string]float64 // fh key → mtime of cached contents
	names map[nameKey]nameEntry
}

type attrEntry struct {
	checkedAt float64
	mtime     float64
	size      uint64
}

type nameKey struct {
	dir  string
	name string
}

type nameEntry struct {
	fh        nfs.FH
	checkedAt float64
}

// Config bundles the constructor parameters that vary per host.
type Config struct {
	IP       uint32
	UID, GID uint32
	Version  uint32
	Proto    byte
	Daemons  int
	Seed     int64
}

// New builds a client attached to a server and record sink.
func New(cfg Config, srv *server.Server, serverIP uint32, sink Sink) *Client {
	rng := rand.New(rand.NewSource(cfg.Seed))
	version := cfg.Version
	if version == 0 {
		version = nfs.V3
	}
	proto := cfg.Proto
	if proto == 0 {
		proto = core.ProtoUDP
	}
	daemons := cfg.Daemons
	if daemons == 0 {
		daemons = 4
	}
	return &Client{
		IP:          cfg.IP,
		Port:        uint16(600 + rng.Intn(400)),
		UID:         cfg.UID,
		GID:         cfg.GID,
		Version:     version,
		Proto:       proto,
		Server:      srv,
		ServerIP:    serverIP,
		Sink:        sink,
		Pool:        NewPool(daemons, cfg.Seed^0x5eed),
		RTT:         0.0004,
		AttrTimeout: 30,
		XferSize:    8192,
		rng:         rng,
		xid:         uint32(rng.Int63()),
		attrs:       make(map[string]*attrEntry),
		data:        make(map[string]float64),
		names:       make(map[nameKey]nameEntry),
	}
}

// roundTrip performs one wire call: dispatch through the nfsiod pool,
// execute on the server, and emit both records (and packets, with a
// tap). It returns the result and the client-observed completion time.
func (c *Client) roundTrip(t float64, v3proc uint32, v3args any) (any, float64) {
	c.xid++
	wireT := c.Pool.Dispatch(t)
	version, proc, args := c.translate(v3proc, v3args)
	c.sendCall(wireT, version, proc, args)
	res := c.Server.Handle(version, proc, args)
	replyT := wireT + c.RTT + c.rng.ExpFloat64()*0.0002
	c.sendReply(replyT, version, proc, res)
	return res, replyT
}

// translate maps a v3 procedure and args onto the client's protocol
// version. V3 clients pass through; V2 clients narrow.
func (c *Client) translate(proc uint32, args any) (uint32, uint32, any) {
	if c.Version == nfs.V3 {
		return nfs.V3, proc, args
	}
	proc, args = translateV2(proc, args)
	return nfs.V2, proc, args
}

// translateV2 narrows a v3 procedure and its args to the v2 equivalent,
// for the simulated Client and the socket NetClient alike. A procedure
// v2 has no counterpart for (and READLINK, which nothing here issues)
// becomes a NULL call.
func translateV2(proc uint32, args any) (uint32, any) {
	switch proc {
	case nfs.V3Getattr:
		return nfs.V2Getattr, args
	case nfs.V3Setattr:
		a := args.(*nfs.SetattrArgs3)
		return nfs.V2Setattr, &nfs.SetattrArgs2{FH: a.FH, Attr: a.Attr}
	case nfs.V3Lookup:
		return nfs.V2Lookup, args
	case nfs.V3Access:
		// No ACCESS in v2: clients use GETATTR for permission checks.
		a := args.(*nfs.AccessArgs3)
		return nfs.V2Getattr, &nfs.GetattrArgs3{FH: a.FH}
	case nfs.V3Read:
		a := args.(*nfs.ReadArgs3)
		return nfs.V2Read, &nfs.ReadArgs2{FH: a.FH, Offset: uint32(a.Offset),
			Count: a.Count, TotalCount: a.Count}
	case nfs.V3Write:
		a := args.(*nfs.WriteArgs3)
		return nfs.V2Write, &nfs.WriteArgs2{FH: a.FH, Offset: uint32(a.Offset),
			Data: server.Filler(int(a.Count))}
	case nfs.V3Create:
		a := args.(*nfs.CreateArgs3)
		return nfs.V2Create, &nfs.CreateArgs2{Where: a.Where, Attr: a.Attr}
	case nfs.V3Mkdir:
		a := args.(*nfs.MkdirArgs3)
		return nfs.V2Mkdir, &nfs.CreateArgs2{Where: a.Where, Attr: a.Attr}
	case nfs.V3Remove:
		return nfs.V2Remove, args
	case nfs.V3Rmdir:
		return nfs.V2Rmdir, args
	case nfs.V3Rename:
		return nfs.V2Rename, args
	case nfs.V3Link:
		return nfs.V2Link, args
	case nfs.V3Symlink:
		return nfs.V2Symlink, args
	case nfs.V3Readdir:
		a := args.(*nfs.ReaddirArgs3)
		return nfs.V2Readdir, &nfs.ReaddirArgs2{Dir: a.Dir,
			Cookie: uint32(a.Cookie), Count: a.MaxCount}
	case nfs.V3Fsstat:
		return nfs.V2Statfs, args
	case nfs.V3Commit:
		// No COMMIT in v2 (writes are synchronous); issue a GETATTR to
		// keep the call visible, as some clients did.
		a := args.(*nfs.CommitArgs3)
		return nfs.V2Getattr, &nfs.GetattrArgs3{FH: a.FH}
	default:
		return nfs.V2Null, nil
	}
}

// --- Raw wire operations (always hit the network) ---

// Getattr fetches attributes, updating the attribute cache.
func (c *Client) Getattr(t float64, fh nfs.FH) (*nfs.Fattr, float64) {
	res, rt := c.roundTrip(t, nfs.V3Getattr, &nfs.GetattrArgs3{FH: fh})
	attr := attrFromRes(res)
	c.noteAttr(fh, rt, attr)
	return attr, rt
}

// attrFromRes extracts attributes from either version's getattr result.
func attrFromRes(res any) *nfs.Fattr {
	switch r := res.(type) {
	case *nfs.GetattrRes3:
		return r.Attr
	case *nfs.AttrStatRes2:
		return r.Attr
	}
	return nil
}

func (c *Client) noteAttr(fh nfs.FH, t float64, attr *nfs.Fattr) {
	if attr == nil {
		delete(c.attrs, fh.Key())
		return
	}
	c.attrs[fh.Key()] = &attrEntry{checkedAt: t, mtime: attr.Mtime.Seconds(), size: attr.Size}
}

// Access performs a permission check (GETATTR on v2).
func (c *Client) Access(t float64, fh nfs.FH) float64 {
	_, rt := c.roundTrip(t, nfs.V3Access, &nfs.AccessArgs3{FH: fh, Access: 0x3F})
	return rt
}

// Lookup resolves name in dir on the wire, updating the name cache.
func (c *Client) Lookup(t float64, dir nfs.FH, name string) (nfs.FH, *nfs.Fattr, float64) {
	res, rt := c.roundTrip(t, nfs.V3Lookup, &nfs.LookupArgs3{Dir: dir, Name: name})
	var fh nfs.FH
	var attr *nfs.Fattr
	switch r := res.(type) {
	case *nfs.LookupRes3:
		if r.Status == nfs.OK {
			fh, attr = r.FH, r.Attr
		}
	case *nfs.DirOpRes2:
		if r.Status == nfs.OK {
			fh, attr = r.FH, r.Attr
		}
	}
	if fh != nil {
		c.names[nameKey{dir.Key(), name}] = nameEntry{fh: fh, checkedAt: rt}
		c.noteAttr(fh, rt, attr)
	}
	return fh, attr, rt
}

// Read issues one wire READ.
func (c *Client) Read(t float64, fh nfs.FH, offset uint64, count uint32) (uint32, bool, float64) {
	res, rt := c.roundTrip(t, nfs.V3Read, &nfs.ReadArgs3{FH: fh, Offset: offset, Count: count})
	switch r := res.(type) {
	case *nfs.ReadRes3:
		return r.Count, r.EOF, rt
	case *nfs.ReadRes2:
		return uint32(len(r.Data)), false, rt
	}
	return 0, false, rt
}

// Write issues one wire WRITE.
func (c *Client) Write(t float64, fh nfs.FH, offset uint64, count uint32, stable uint32) float64 {
	res, rt := c.roundTrip(t, nfs.V3Write, &nfs.WriteArgs3{
		FH: fh, Offset: offset, Count: count, Stable: stable,
		Data: server.Filler(int(count))})
	if r, ok := res.(*nfs.WriteRes3); ok && r.Wcc != nil && r.Wcc.After != nil {
		// Own writes refresh the cached mtime so they do not trigger
		// self-invalidation.
		c.noteAttr(fh, rt, r.Wcc.After)
		c.data[fh.Key()] = r.Wcc.After.Mtime.Seconds()
	}
	if r, ok := res.(*nfs.AttrStatRes2); ok && r.Attr != nil {
		c.noteAttr(fh, rt, r.Attr)
		c.data[fh.Key()] = r.Attr.Mtime.Seconds()
	}
	return rt
}

// Commit flushes unstable writes (GETATTR on v2).
func (c *Client) Commit(t float64, fh nfs.FH) float64 {
	_, rt := c.roundTrip(t, nfs.V3Commit, &nfs.CommitArgs3{FH: fh, Offset: 0, Count: 0})
	return rt
}

// Create makes a file and caches its handle.
func (c *Client) Create(t float64, dir nfs.FH, name string, truncate bool) (nfs.FH, float64) {
	attr := nfs.Sattr{UID: &c.UID, GID: &c.GID}
	if truncate {
		zero := uint64(0)
		attr.Size = &zero
	}
	res, rt := c.roundTrip(t, nfs.V3Create, &nfs.CreateArgs3{
		Where: nfs.DirOpArgs3{Dir: dir, Name: name}, Attr: attr})
	var fh nfs.FH
	switch r := res.(type) {
	case *nfs.CreateRes3:
		if r.Status == nfs.OK {
			fh = r.FH
			c.noteAttr(fh, rt, r.Attr)
		}
	case *nfs.DirOpRes2:
		if r.Status == nfs.OK {
			fh = r.FH
			c.noteAttr(fh, rt, r.Attr)
		}
	}
	if fh != nil {
		c.names[nameKey{dir.Key(), name}] = nameEntry{fh: fh, checkedAt: rt}
	}
	return fh, rt
}

// Remove unlinks a file and invalidates caches.
func (c *Client) Remove(t float64, dir nfs.FH, name string) (uint32, float64) {
	res, rt := c.roundTrip(t, nfs.V3Remove, &nfs.DirOpArgs3{Dir: dir, Name: name})
	k := nameKey{dir.Key(), name}
	if ent, ok := c.names[k]; ok {
		delete(c.attrs, ent.fh.Key())
		delete(c.data, ent.fh.Key())
		delete(c.names, k)
	}
	switch r := res.(type) {
	case *nfs.RemoveRes3:
		return r.Status, rt
	case *nfs.StatusRes2:
		return r.Status, rt
	}
	return nfs.ErrIO, rt
}

// Rename moves a file, invalidating name caches.
func (c *Client) Rename(t float64, fromDir nfs.FH, fromName string, toDir nfs.FH, toName string) float64 {
	_, rt := c.roundTrip(t, nfs.V3Rename, &nfs.RenameArgs3{
		From: nfs.DirOpArgs3{Dir: fromDir, Name: fromName},
		To:   nfs.DirOpArgs3{Dir: toDir, Name: toName}})
	delete(c.names, nameKey{fromDir.Key(), fromName})
	delete(c.names, nameKey{toDir.Key(), toName})
	return rt
}

// SetattrTruncate truncates a file to size.
func (c *Client) SetattrTruncate(t float64, fh nfs.FH, size uint64) float64 {
	res, rt := c.roundTrip(t, nfs.V3Setattr, &nfs.SetattrArgs3{FH: fh,
		Attr: nfs.Sattr{Size: &size}})
	if r, ok := res.(*nfs.SetattrRes3); ok && r.Wcc != nil {
		c.noteAttr(fh, rt, r.Wcc.After)
	}
	return rt
}

// Readdir lists a directory (one wire call per page).
func (c *Client) Readdir(t float64, dir nfs.FH) ([]nfs.DirEntry, float64) {
	var all []nfs.DirEntry
	cookie := uint64(0)
	for {
		res, rt := c.roundTrip(t, nfs.V3Readdir, &nfs.ReaddirArgs3{
			Dir: dir, Cookie: cookie, MaxCount: 4096})
		t = rt
		switch r := res.(type) {
		case *nfs.ReaddirRes3:
			all = append(all, r.Entries...)
			if r.Status != nfs.OK || r.EOF || len(r.Entries) == 0 {
				return all, t
			}
			cookie = r.Entries[len(r.Entries)-1].Cookie
		case *nfs.ReaddirRes2:
			all = append(all, r.Entries...)
			if r.Status != nfs.OK || r.EOF || len(r.Entries) == 0 {
				return all, t
			}
			cookie = r.Entries[len(r.Entries)-1].Cookie
		default:
			return all, t
		}
	}
}

// --- Cached operations (may be absorbed by the client cache) ---

// LookupCached resolves a name, going to the wire only when the name
// cache entry is missing or stale.
func (c *Client) LookupCached(t float64, dir nfs.FH, name string) (nfs.FH, float64) {
	if ent, ok := c.names[nameKey{dir.Key(), name}]; ok && t-ent.checkedAt < c.AttrTimeout {
		return ent.fh, t
	}
	fh, _, rt := c.Lookup(t, dir, name)
	return fh, rt
}

// StatCached checks a file's attributes, going to the wire only when the
// cached attributes have expired. It reports whether the file changed
// since the data cache last loaded it.
func (c *Client) StatCached(t float64, fh nfs.FH) (changed bool, rt float64) {
	k := fh.Key()
	ent, ok := c.attrs[k]
	if ok && t-ent.checkedAt < c.AttrTimeout {
		cachedMtime, has := c.data[k]
		return !has || cachedMtime != ent.mtime, t
	}
	attr, rt := c.Getattr(t, fh)
	if attr == nil {
		return true, rt
	}
	cachedMtime, has := c.data[k]
	return !has || cachedMtime != attr.Mtime.Seconds(), rt
}

// ReadFile reads a whole file of the given size through the data cache:
// if the cached copy is still valid the only wire traffic is the
// validation GETATTR; otherwise every block is fetched (8 KB requests)
// and the copy is marked cached. Returns bytes actually transferred.
func (c *Client) ReadFile(t float64, fh nfs.FH, size uint64) (wireBytes uint64, rt float64) {
	changed, rt := c.StatCached(t, fh)
	if !changed {
		return 0, rt
	}
	wireBytes, rt = c.readRange(rt, fh, 0, size)
	if ent, ok := c.attrs[fh.Key()]; ok {
		c.data[fh.Key()] = ent.mtime
	}
	return wireBytes, rt
}

// readRange fetches [offset, offset+n) in XferSize wire reads. Requests
// in a batch are issued back-to-back (read-ahead keeps several
// outstanding), which is precisely where nfsiod reordering bites.
func (c *Client) readRange(t float64, fh nfs.FH, offset, n uint64) (uint64, float64) {
	chunk := c.XferSize
	if chunk == 0 {
		chunk = 8192
	}
	var moved uint64
	issue := t
	last := t
	for got := uint64(0); got < n; got += chunk {
		count := uint32(chunk)
		if rem := n - got; rem < chunk {
			count = uint32(rem)
		}
		cnt, eof, rt := c.Read(issue, fh, offset+got, count)
		moved += uint64(cnt)
		last = rt
		// Read-ahead pipelining: issue the next request ~60µs after
		// the previous one, not after its reply.
		issue += 0.00006
		if eof {
			break
		}
	}
	return moved, last
}

// ReadRange reads an arbitrary range through the wire (no data cache),
// for partial-file access patterns.
func (c *Client) ReadRange(t float64, fh nfs.FH, offset, n uint64) (uint64, float64) {
	return c.readRange(t, fh, offset, n)
}

// Append writes n bytes at the end of the file (cached size tracks the
// server's), using 8 KB unstable writes and a trailing commit on v3.
func (c *Client) Append(t float64, fh nfs.FH, n uint64) float64 {
	size := uint64(0)
	if ent, ok := c.attrs[fh.Key()]; ok {
		size = ent.size
	}
	rt := c.WriteRange(t, fh, size, n)
	return rt
}

// WriteRange writes [offset, offset+n) in XferSize chunks.
func (c *Client) WriteRange(t float64, fh nfs.FH, offset, n uint64) float64 {
	chunk := c.XferSize
	if chunk == 0 {
		chunk = 8192
	}
	issue := t
	last := t
	stable := uint32(nfs.Unstable)
	if n <= chunk {
		stable = nfs.FileSync // small writes go synchronous
	}
	for put := uint64(0); put < n; put += chunk {
		count := uint32(chunk)
		if rem := n - put; rem < chunk {
			count = uint32(rem)
		}
		last = c.Write(issue, fh, offset+put, count, stable)
		issue += 0.00008
	}
	if stable == nfs.Unstable && c.Version == nfs.V3 {
		last = c.Commit(last, fh)
	}
	return last
}
