// Package server simulates the NFS servers under trace: a dispatch
// layer that executes NFSv2/NFSv3 procedures against an in-memory
// filesystem (producing byte-faithful reply bodies), plus the disk model
// and read-ahead heuristics used to reproduce the paper's §6.4
// experiment, where a sequentiality-metric read-ahead policy beats the
// strict next-offset heuristic under request reordering.
package server

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/nfs"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Server executes NFS procedures against a filesystem. It is safe for
// concurrent use: the filesystem carries its own locking and the
// procedure counters are atomic, so the socket layer dispatches calls
// from many connections in parallel.
type Server struct {
	FS *vfs.FS

	// ops3/ops2 count executed procedures per protocol version; v2
	// procedures that delegate to a v3 handler count under the v3
	// name, as the old shared map did.
	ops3       [nfs.V3NumProcs]atomic.Int64
	ops2       [nfs.V2NumProcs]atomic.Int64
	opsUnknown atomic.Int64
}

// New wraps a filesystem in a server.
func New(fs *vfs.FS) *Server {
	return &Server{FS: fs}
}

func (s *Server) countV3(proc uint32) {
	if proc < nfs.V3NumProcs {
		s.ops3[proc].Add(1)
	} else {
		s.opsUnknown.Add(1)
	}
}

func (s *Server) countV2(proc uint32) {
	if proc < nfs.V2NumProcs {
		s.ops2[proc].Add(1)
	} else {
		s.opsUnknown.Add(1)
	}
}

// OpCount reports executions of the named procedure (lower-case
// nfsdump vocabulary), merging v2 and v3 uses of the same name.
func (s *Server) OpCount(name string) int64 {
	var n int64
	for proc := uint32(0); proc < nfs.V3NumProcs; proc++ {
		if nfs.ProcName(nfs.V3, proc) == name {
			n += s.ops3[proc].Load()
		}
	}
	for proc := uint32(0); proc < nfs.V2NumProcs; proc++ {
		if nfs.ProcName(nfs.V2, proc) == name {
			n += s.ops2[proc].Load()
		}
	}
	return n
}

// OpCounts snapshots every non-zero procedure counter by name.
func (s *Server) OpCounts() map[string]int64 {
	counts := make(map[string]int64)
	for proc := uint32(0); proc < nfs.V3NumProcs; proc++ {
		if n := s.ops3[proc].Load(); n > 0 {
			counts[nfs.ProcName(nfs.V3, proc)] += n
		}
	}
	for proc := uint32(0); proc < nfs.V2NumProcs; proc++ {
		if n := s.ops2[proc].Load(); n > 0 {
			counts[nfs.ProcName(nfs.V2, proc)] += n
		}
	}
	return counts
}

// errStatus maps vfs errors to NFS status codes.
func errStatus(err error) uint32 {
	switch {
	case err == nil:
		return nfs.OK
	case errors.Is(err, vfs.ErrNotFound):
		return nfs.ErrNoEnt
	case errors.Is(err, vfs.ErrExist):
		return nfs.ErrExist
	case errors.Is(err, vfs.ErrNotDir):
		return nfs.ErrNotDir
	case errors.Is(err, vfs.ErrIsDir):
		return nfs.ErrIsDir
	case errors.Is(err, vfs.ErrNotEmpty):
		return nfs.ErrNotEmpty
	case errors.Is(err, vfs.ErrStale):
		return nfs.ErrStale
	case errors.Is(err, vfs.ErrQuota):
		return nfs.ErrDQuot
	case errors.Is(err, vfs.ErrNameTooLong):
		return nfs.ErrNameTooLong
	case errors.Is(err, vfs.ErrInval):
		return nfs.ErrInval
	case errors.Is(err, vfs.ErrTooBig):
		return nfs.ErrFBig
	default:
		return nfs.ErrIO
	}
}

func (s *Server) attrFH(fh nfs.FH) *nfs.Fattr {
	ino, err := s.FS.GetFH(fh)
	if err != nil {
		return nil
	}
	return s.FS.Attr(ino)
}

// Handle executes one procedure of the given protocol version (nfs.V2
// or nfs.V3) through HandleV3 or HandleV2.
func (s *Server) Handle(version, proc uint32, args any) any {
	if version == nfs.V3 {
		return s.HandleV3(proc, args)
	}
	return s.HandleV2(proc, args)
}

// HandleV3 executes one NFSv3 procedure and returns the matching *Res3
// struct (nil for NULL).
func (s *Server) HandleV3(proc uint32, args any) any {
	s.countV3(proc)
	switch proc {
	case nfs.V3Null:
		return nil
	case nfs.V3Getattr, nfs.V3Fsinfo, nfs.V3Pathconf:
		a := args.(*nfs.GetattrArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.GetattrRes3{Status: errStatus(err)}
		}
		return &nfs.GetattrRes3{Status: nfs.OK, Attr: s.FS.Attr(ino)}
	case nfs.V3Setattr:
		a := args.(*nfs.SetattrArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.SetattrRes3{Status: errStatus(err)}
		}
		before, after, err := s.FS.Setattr(ino.ID, a.Attr.Size, a.Attr.Mode, a.Attr.UID, a.Attr.GID)
		if err != nil {
			res := &nfs.SetattrRes3{Status: errStatus(err)}
			if before != nil {
				res.Wcc = &nfs.WccData{Before: before, After: after}
			}
			return res
		}
		return &nfs.SetattrRes3{Status: nfs.OK,
			Wcc: &nfs.WccData{Before: before, After: after}}
	case nfs.V3Lookup:
		a := args.(*nfs.LookupArgs3)
		dir, err := s.FS.GetFH(a.Dir)
		if err != nil {
			return &nfs.LookupRes3{Status: errStatus(err)}
		}
		ino, err := s.FS.Lookup(dir.ID, a.Name)
		if err != nil {
			return &nfs.LookupRes3{Status: errStatus(err), DirAttr: s.FS.Attr(dir)}
		}
		return &nfs.LookupRes3{Status: nfs.OK, FH: nfs.MakeFH(ino.ID),
			Attr: s.FS.Attr(ino), DirAttr: s.FS.Attr(dir)}
	case nfs.V3Access:
		a := args.(*nfs.AccessArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.AccessRes3{Status: errStatus(err)}
		}
		return &nfs.AccessRes3{Status: nfs.OK, Attr: s.FS.Attr(ino), Access: a.Access}
	case nfs.V3Readlink:
		a := args.(*nfs.GetattrArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.LookupRes3{Status: errStatus(err)}
		}
		return &nfs.LookupRes3{Status: nfs.OK, Attr: s.FS.Attr(ino)}
	case nfs.V3Read:
		a := args.(*nfs.ReadArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.ReadRes3{Status: errStatus(err)}
		}
		n, eof, err := s.FS.Read(ino.ID, a.Offset, uint64(min(a.Count, MaxReadCount)))
		if err != nil {
			return &nfs.ReadRes3{Status: errStatus(err), Attr: s.FS.Attr(ino)}
		}
		return &nfs.ReadRes3{Status: nfs.OK, Attr: s.FS.Attr(ino),
			Count: uint32(n), EOF: eof, Data: Filler(int(n))}
	case nfs.V3Write:
		a := args.(*nfs.WriteArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.WriteRes3{Status: errStatus(err)}
		}
		before := s.FS.Wcc(ino)
		if _, err := s.FS.Write(ino.ID, a.Offset, uint64(a.Count)); err != nil {
			return &nfs.WriteRes3{Status: errStatus(err),
				Wcc: &nfs.WccData{Before: before, After: s.FS.Attr(ino)}}
		}
		committed := a.Stable
		return &nfs.WriteRes3{Status: nfs.OK, Count: a.Count, Committed: committed,
			Wcc: &nfs.WccData{Before: before, After: s.FS.Attr(ino)}}
	case nfs.V3Create:
		a := args.(*nfs.CreateArgs3)
		dir, err := s.FS.GetFH(a.Where.Dir)
		if err != nil {
			return &nfs.CreateRes3{Status: errStatus(err)}
		}
		mode := uint32(0644)
		if a.Attr.Mode != nil {
			mode = *a.Attr.Mode
		}
		uid, gid := uint32(0), uint32(0)
		if a.Attr.UID != nil {
			uid = *a.Attr.UID
		}
		if a.Attr.GID != nil {
			gid = *a.Attr.GID
		}
		ino, err := s.FS.Create(dir.ID, a.Where.Name, uid, gid, mode)
		if errors.Is(err, vfs.ErrExist) {
			// UNCHECKED create of an existing file succeeds and
			// truncates if a size was given, matching RFC 1813.
			ino, err = s.FS.Lookup(dir.ID, a.Where.Name)
			if err == nil && a.Attr.Size != nil {
				_, err = s.FS.Truncate(ino.ID, *a.Attr.Size)
			}
		}
		if err != nil {
			return &nfs.CreateRes3{Status: errStatus(err)}
		}
		return &nfs.CreateRes3{Status: nfs.OK, FH: nfs.MakeFH(ino.ID), Attr: s.FS.Attr(ino)}
	case nfs.V3Mkdir:
		a := args.(*nfs.MkdirArgs3)
		dir, err := s.FS.GetFH(a.Where.Dir)
		if err != nil {
			return &nfs.CreateRes3{Status: errStatus(err)}
		}
		ino, err := s.FS.Mkdir(dir.ID, a.Where.Name, 0, 0, 0755)
		if err != nil {
			return &nfs.CreateRes3{Status: errStatus(err)}
		}
		return &nfs.CreateRes3{Status: nfs.OK, FH: nfs.MakeFH(ino.ID), Attr: s.FS.Attr(ino)}
	case nfs.V3Symlink:
		a := args.(*nfs.SymlinkArgs3)
		dir, err := s.FS.GetFH(a.Where.Dir)
		if err != nil {
			return &nfs.CreateRes3{Status: errStatus(err)}
		}
		ino, err := s.FS.Symlink(dir.ID, a.Where.Name, a.Target, 0, 0)
		if err != nil {
			return &nfs.CreateRes3{Status: errStatus(err)}
		}
		return &nfs.CreateRes3{Status: nfs.OK, FH: nfs.MakeFH(ino.ID), Attr: s.FS.Attr(ino)}
	case nfs.V3Remove:
		a := args.(*nfs.DirOpArgs3)
		dir, err := s.FS.GetFH(a.Dir)
		if err != nil {
			return &nfs.RemoveRes3{Status: errStatus(err)}
		}
		err = s.FS.Remove(dir.ID, a.Name)
		return &nfs.RemoveRes3{Status: errStatus(err),
			Wcc: &nfs.WccData{After: s.FS.Attr(dir)}}
	case nfs.V3Rmdir:
		a := args.(*nfs.DirOpArgs3)
		dir, err := s.FS.GetFH(a.Dir)
		if err != nil {
			return &nfs.RemoveRes3{Status: errStatus(err)}
		}
		err = s.FS.Rmdir(dir.ID, a.Name)
		return &nfs.RemoveRes3{Status: errStatus(err),
			Wcc: &nfs.WccData{After: s.FS.Attr(dir)}}
	case nfs.V3Rename:
		a := args.(*nfs.RenameArgs3)
		from, err := s.FS.GetFH(a.From.Dir)
		if err != nil {
			return &nfs.RenameRes3{Status: errStatus(err)}
		}
		to, err := s.FS.GetFH(a.To.Dir)
		if err != nil {
			return &nfs.RenameRes3{Status: errStatus(err)}
		}
		err = s.FS.Rename(from.ID, a.From.Name, to.ID, a.To.Name)
		return &nfs.RenameRes3{Status: errStatus(err)}
	case nfs.V3Link:
		a := args.(*nfs.LinkArgs3)
		target, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.RemoveRes3{Status: errStatus(err)}
		}
		dir, err := s.FS.GetFH(a.To.Dir)
		if err != nil {
			return &nfs.RemoveRes3{Status: errStatus(err)}
		}
		err = s.FS.Link(target.ID, dir.ID, a.To.Name)
		return &nfs.RemoveRes3{Status: errStatus(err)}
	case nfs.V3Readdir, nfs.V3Readdirplus:
		a := args.(*nfs.ReaddirArgs3)
		dir, err := s.FS.GetFH(a.Dir)
		if err != nil {
			return &nfs.ReaddirRes3{Status: errStatus(err)}
		}
		max := int(a.MaxCount / 64) // ~64 bytes per wire entry
		if max < 8 {
			max = 8
		}
		entries, done, err := s.FS.Readdir(dir.ID, a.Cookie, max)
		if err != nil {
			return &nfs.ReaddirRes3{Status: errStatus(err)}
		}
		return &nfs.ReaddirRes3{Status: nfs.OK, DirAttr: s.FS.Attr(dir),
			Entries: entries, EOF: done}
	case nfs.V3Fsstat:
		a := args.(*nfs.GetattrArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.FsstatRes3{Status: errStatus(err)}
		}
		used := s.FS.TotalBytes()
		total := uint64(53) << 30 // one CAMPUS 53GB disk array
		free := uint64(0)
		if used < total {
			free = total - used
		}
		return &nfs.FsstatRes3{Status: nfs.OK, Attr: s.FS.Attr(ino),
			Tbytes: total, Fbytes: free, Abytes: free}
	case nfs.V3Commit:
		a := args.(*nfs.CommitArgs3)
		ino, err := s.FS.GetFH(a.FH)
		if err != nil {
			return &nfs.CommitRes3{Status: errStatus(err)}
		}
		return &nfs.CommitRes3{Status: nfs.OK, Wcc: &nfs.WccData{After: s.FS.Attr(ino)}}
	default:
		return &nfs.GetattrRes3{Status: nfs.ErrNotSupp}
	}
}

// HandleV2 executes one NFSv2 procedure and returns the matching *Res2
// struct. Internally it delegates to the v3 handlers and narrows.
func (s *Server) HandleV2(proc uint32, args any) any {
	switch proc {
	case nfs.V2Null, nfs.V2Root, nfs.V2Writecache:
		s.countV2(proc)
		return nil
	case nfs.V2Getattr:
		r := s.HandleV3(nfs.V3Getattr, args).(*nfs.GetattrRes3)
		return &nfs.AttrStatRes2{Status: r.Status, Attr: r.Attr}
	case nfs.V2Setattr:
		a := args.(*nfs.SetattrArgs2)
		r := s.HandleV3(nfs.V3Setattr, &nfs.SetattrArgs3{FH: a.FH, Attr: a.Attr}).(*nfs.SetattrRes3)
		res := &nfs.AttrStatRes2{Status: r.Status}
		if r.Wcc != nil {
			res.Attr = r.Wcc.After
		}
		return res
	case nfs.V2Lookup:
		r := s.HandleV3(nfs.V3Lookup, args).(*nfs.LookupRes3)
		return &nfs.DirOpRes2{Status: r.Status, FH: r.FH, Attr: r.Attr}
	case nfs.V2Readlink:
		r := s.HandleV3(nfs.V3Readlink, args).(*nfs.LookupRes3)
		return &nfs.StatusRes2{Status: r.Status}
	case nfs.V2Read:
		a := args.(*nfs.ReadArgs2)
		r := s.HandleV3(nfs.V3Read, &nfs.ReadArgs3{FH: a.FH, Offset: uint64(a.Offset), Count: a.Count}).(*nfs.ReadRes3)
		return &nfs.ReadRes2{Status: r.Status, Attr: r.Attr, Data: r.Data}
	case nfs.V2Write:
		a := args.(*nfs.WriteArgs2)
		r := s.HandleV3(nfs.V3Write, &nfs.WriteArgs3{FH: a.FH, Offset: uint64(a.Offset),
			Count: uint32(len(a.Data)), Stable: nfs.FileSync, Data: a.Data}).(*nfs.WriteRes3)
		res := &nfs.AttrStatRes2{Status: r.Status}
		if r.Wcc != nil {
			res.Attr = r.Wcc.After
		}
		return res
	case nfs.V2Create, nfs.V2Mkdir:
		a := args.(*nfs.CreateArgs2)
		v3proc := uint32(nfs.V3Create)
		var v3args any = &nfs.CreateArgs3{Where: a.Where, Attr: a.Attr}
		if proc == nfs.V2Mkdir {
			v3proc = nfs.V3Mkdir
			v3args = &nfs.MkdirArgs3{Where: a.Where, Attr: a.Attr}
		}
		r := s.HandleV3(v3proc, v3args).(*nfs.CreateRes3)
		return &nfs.DirOpRes2{Status: r.Status, FH: r.FH, Attr: r.Attr}
	case nfs.V2Remove:
		r := s.HandleV3(nfs.V3Remove, args).(*nfs.RemoveRes3)
		return &nfs.StatusRes2{Status: r.Status}
	case nfs.V2Rmdir:
		r := s.HandleV3(nfs.V3Rmdir, args).(*nfs.RemoveRes3)
		return &nfs.StatusRes2{Status: r.Status}
	case nfs.V2Rename:
		r := s.HandleV3(nfs.V3Rename, args).(*nfs.RenameRes3)
		return &nfs.StatusRes2{Status: r.Status}
	case nfs.V2Link:
		r := s.HandleV3(nfs.V3Link, args).(*nfs.RemoveRes3)
		return &nfs.StatusRes2{Status: r.Status}
	case nfs.V2Symlink:
		r := s.HandleV3(nfs.V3Symlink, args).(*nfs.CreateRes3)
		return &nfs.StatusRes2{Status: r.Status}
	case nfs.V2Readdir:
		a := args.(*nfs.ReaddirArgs2)
		r := s.HandleV3(nfs.V3Readdir, &nfs.ReaddirArgs3{Dir: a.Dir,
			Cookie: uint64(a.Cookie), MaxCount: a.Count}).(*nfs.ReaddirRes3)
		return &nfs.ReaddirRes2{Status: r.Status, Entries: r.Entries, EOF: r.EOF}
	case nfs.V2Statfs:
		a := args.(*nfs.GetattrArgs3)
		r := s.HandleV3(nfs.V3Fsstat, a).(*nfs.FsstatRes3)
		return &nfs.StatfsRes2{Status: r.Status, Tsize: 8192, Bsize: vfs.BlockSize,
			Blocks: uint32(r.Tbytes / vfs.BlockSize), Bfree: uint32(r.Fbytes / vfs.BlockSize),
			Bavail: uint32(r.Abytes / vfs.BlockSize)}
	default:
		return &nfs.StatusRes2{Status: nfs.ErrNotSupp}
	}
}

// filler is the shared synthetic payload pool; reads slice it rather
// than allocating per reply. NFS data content never matters to the
// tracer. Growth copies into a fresh slice published atomically, so
// parallel readers never observe a pool being rewritten under them.
var (
	filler   atomic.Pointer[[]byte]
	fillerMu sync.Mutex
)

func init() {
	b := make([]byte, 65536)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	filler.Store(&b)
}

// MaxReadCount bounds the bytes one READ returns (RFC 1813 lets a
// server return fewer than asked): the largest payload whose reply still
// fits one RPC record, wire.MaxRecordLen, with room for its headers. A
// larger READ would build a reply no connection can send, and grow
// Filler's shared payload to the size asked for.
const MaxReadCount = wire.MaxRecordLen - 1<<12

// Filler returns n bytes of synthetic payload (shared storage; callers
// must not modify it). Safe for concurrent use.
func Filler(n int) []byte {
	if n <= 0 {
		return nil
	}
	b := *filler.Load()
	if n <= len(b) {
		return b[:n]
	}
	fillerMu.Lock()
	defer fillerMu.Unlock()
	b = *filler.Load()
	for n > len(b) {
		nb := make([]byte, 2*len(b))
		copy(nb, b)
		copy(nb[len(b):], b)
		b = nb
	}
	filler.Store(&b)
	return b[:n]
}
