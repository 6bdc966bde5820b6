package nfs

import (
	"fmt"

	"repro/internal/xdr"
)

// NFSv2 wire codecs (RFC 1094), decoding through the sticky xdr.Decoder
// the way v3.go does. NFSv2 file handles are a fixed 32 bytes; the
// simulator's 8-byte handles are zero-padded on encode, and decode trims
// the zero padding back off so both protocol versions yield the same FH
// for the same file. Sizes and offsets are 32-bit in v2.

func encodeFH2(e *xdr.Encoder, fh FH) {
	var buf [V2FHSize]byte
	copy(buf[:], fh)
	e.PutFixedOpaque(buf[:])
}

func decodeFH2(d *xdr.Decoder) FH {
	b := d.FixedOpaque(V2FHSize)
	if b == nil {
		return nil
	}
	// Trim simulator zero padding: if bytes 8.. are zero, this is an
	// 8-byte simulator handle.
	allZero := true
	for _, c := range b[8:] {
		if c != 0 {
			allZero = false
			break
		}
	}
	n := V2FHSize
	if allZero {
		n = 8
	}
	return handle(b[:n])
}

// decodeDirOp2 reads v2 diropargs: a directory handle and a name.
func decodeDirOp2(d *xdr.Decoder) DirOpArgs3 {
	return DirOpArgs3{Dir: decodeFH2(d), Name: d.String()}
}

func encodeTime2(e *xdr.Encoder, t Time) {
	e.PutUint32(t.Sec)
	e.PutUint32(t.Nsec / 1000) // v2 carries microseconds
}

func decodeTime2(d *xdr.Decoder) Time {
	sec, usec := d.Uint32(), d.Uint32()
	if usec == 0xFFFFFFFF { // "don't set" marker in sattr
		return Time{Sec: sec, Nsec: 0xFFFFFFFF}
	}
	return Time{Sec: sec, Nsec: usec * 1000}
}

// EncodeFattr2 writes a v2 fattr block, narrowing 64-bit fields.
func EncodeFattr2(e *xdr.Encoder, a *Fattr) {
	e.PutUint32(a.Type)
	e.PutUint32(a.Mode)
	e.PutUint32(a.Nlink)
	e.PutUint32(a.UID)
	e.PutUint32(a.GID)
	e.PutUint32(uint32(a.Size))
	e.PutUint32(8192)                         // blocksize
	e.PutUint32(0)                            // rdev
	e.PutUint32(uint32((a.Used + 511) / 512)) // blocks
	e.PutUint32(uint32(a.FSID))
	e.PutUint32(uint32(a.FileID))
	encodeTime2(e, a.Atime)
	encodeTime2(e, a.Mtime)
	encodeTime2(e, a.Ctime)
}

// readFattr2 parses a v2 fattr block into one of s's, in the
// version-neutral form. After a short read the result is meaningless
// and d.Err reports it.
func readFattr2(d *xdr.Decoder, s *Decoder) *Fattr {
	a := s.fattr()
	*a = Fattr{Type: d.Uint32(), Mode: d.Uint32(), Nlink: d.Uint32(), UID: d.Uint32(), GID: d.Uint32()}
	a.Size = uint64(d.Uint32())
	d.Uint32()                        // blocksize
	d.Uint32()                        // rdev
	a.Used = uint64(d.Uint32()) * 512 // blocks
	a.FSID = uint64(d.Uint32())
	a.FileID = uint64(d.Uint32())
	a.Atime = decodeTime2(d)
	a.Mtime = decodeTime2(d)
	a.Ctime = decodeTime2(d)
	return a
}

const v2NoValue = 0xFFFFFFFF

func encodeSattr2(e *xdr.Encoder, s *Sattr) {
	put := func(v *uint32) {
		if v == nil {
			e.PutUint32(v2NoValue)
		} else {
			e.PutUint32(*v)
		}
	}
	put(s.Mode)
	put(s.UID)
	put(s.GID)
	if s.Size == nil {
		e.PutUint32(v2NoValue)
	} else {
		e.PutUint32(uint32(*s.Size))
	}
	putTime := func(t *Time) {
		if t == nil {
			e.PutUint32(v2NoValue)
			e.PutUint32(v2NoValue)
		} else {
			encodeTime2(e, *t)
		}
	}
	putTime(s.Atime)
	putTime(s.Mtime)
}

func decodeSattr2(d *xdr.Decoder, s *Decoder) Sattr {
	v := &s.sattr
	opt := func(p *uint32) *uint32 {
		x := d.Uint32()
		if x == v2NoValue {
			return nil
		}
		return val(p, x)
	}
	optTime := func(p *Time) *Time {
		sec, usec := d.Uint32(), d.Uint32()
		if sec == v2NoValue && usec == v2NoValue {
			return nil
		}
		return val(p, Time{Sec: sec, Nsec: usec * 1000})
	}
	a := Sattr{Mode: opt(&v.mode), UID: opt(&v.uid), GID: opt(&v.gid)}
	if sz := d.Uint32(); sz != v2NoValue {
		a.Size = val(&v.size, uint64(sz))
	}
	a.Atime = optTime(&v.atime)
	a.Mtime = optTime(&v.mtime)
	return a
}

// --- v2 argument structs (reusing v3 shapes where the fields match) ---

// ReadArgs2 is the v2 READ argument.
type ReadArgs2 struct {
	FH         FH
	Offset     uint32
	Count      uint32
	TotalCount uint32
}

// WriteArgs2 is the v2 WRITE argument.
type WriteArgs2 struct {
	FH     FH
	Offset uint32
	Data   []byte
}

// CreateArgs2 is the v2 CREATE/MKDIR argument.
type CreateArgs2 struct {
	Where DirOpArgs3
	Attr  Sattr
}

// SetattrArgs2 is the v2 SETATTR argument.
type SetattrArgs2 struct {
	FH   FH
	Attr Sattr
}

// ReaddirArgs2 is the v2 READDIR argument.
type ReaddirArgs2 struct {
	Dir    FH
	Cookie uint32
	Count  uint32
}

// AttrStatRes2 is the common v2 result: status plus attributes
// (GETATTR, SETATTR, WRITE).
type AttrStatRes2 struct {
	Status uint32
	Attr   *Fattr
}

// DirOpRes2 is the v2 LOOKUP/CREATE/MKDIR result: status, fh, attrs.
type DirOpRes2 struct {
	Status uint32
	FH     FH
	Attr   *Fattr
}

// ReadRes2 is the v2 READ result.
type ReadRes2 struct {
	Status uint32
	Attr   *Fattr
	Data   []byte
}

// StatusRes2 is the bare-status v2 result (REMOVE, RENAME, etc.).
type StatusRes2 struct {
	Status uint32
}

// ReaddirRes2 is the v2 READDIR result.
type ReaddirRes2 struct {
	Status  uint32
	Entries []DirEntry
	EOF     bool
}

// StatfsRes2 is the v2 STATFS result.
type StatfsRes2 struct {
	Status uint32
	Tsize  uint32
	Bsize  uint32
	Blocks uint32
	Bfree  uint32
	Bavail uint32
}

// EncodeArgs2 writes the v2 argument body for proc.
func EncodeArgs2(e *xdr.Encoder, proc uint32, args any) error {
	switch proc {
	case V2Null, V2Root, V2Writecache:
		return nil
	case V2Getattr, V2Readlink, V2Statfs:
		encodeFH2(e, args.(*GetattrArgs3).FH)
	case V2Setattr:
		a := args.(*SetattrArgs2)
		encodeFH2(e, a.FH)
		encodeSattr2(e, &a.Attr)
	case V2Lookup:
		a := args.(*DirOpArgs3)
		encodeFH2(e, a.Dir)
		e.PutString(a.Name)
	case V2Read:
		a := args.(*ReadArgs2)
		encodeFH2(e, a.FH)
		e.PutUint32(a.Offset)
		e.PutUint32(a.Count)
		e.PutUint32(a.TotalCount)
	case V2Write:
		a := args.(*WriteArgs2)
		encodeFH2(e, a.FH)
		e.PutUint32(0) // beginoffset (unused)
		e.PutUint32(a.Offset)
		e.PutUint32(0) // totalcount (unused)
		e.PutOpaque(a.Data)
	case V2Create, V2Mkdir:
		a := args.(*CreateArgs2)
		encodeFH2(e, a.Where.Dir)
		e.PutString(a.Where.Name)
		encodeSattr2(e, &a.Attr)
	case V2Remove, V2Rmdir:
		a := args.(*DirOpArgs3)
		encodeFH2(e, a.Dir)
		e.PutString(a.Name)
	case V2Rename:
		a := args.(*RenameArgs3)
		encodeFH2(e, a.From.Dir)
		e.PutString(a.From.Name)
		encodeFH2(e, a.To.Dir)
		e.PutString(a.To.Name)
	case V2Link:
		a := args.(*LinkArgs3)
		encodeFH2(e, a.FH)
		encodeFH2(e, a.To.Dir)
		e.PutString(a.To.Name)
	case V2Symlink:
		a := args.(*SymlinkArgs3)
		encodeFH2(e, a.Where.Dir)
		e.PutString(a.Where.Name)
		e.PutString(a.Target)
		encodeSattr2(e, &a.Attr)
	case V2Readdir:
		a := args.(*ReaddirArgs2)
		encodeFH2(e, a.Dir)
		e.PutUint32(a.Cookie)
		e.PutUint32(a.Count)
	default:
		return fmt.Errorf("%w: v2 proc %d", ErrBadProc, proc)
	}
	return nil
}

// decodeArgs2 parses the v2 argument body for proc into s.
func decodeArgs2(s *Decoder, proc uint32, body []byte) (any, error) {
	d := xdr.NewDecoder(body)
	t := s.procs(V2, false)
	var args any
	switch proc {
	case V2Null, V2Root, V2Writecache:
	case V2Getattr, V2Readlink, V2Statfs:
		a := own[GetattrArgs3](t, proc)
		a.FH = decodeFH2(d)
		args = a
	case V2Setattr:
		a := own[SetattrArgs2](t, proc)
		*a = SetattrArgs2{FH: decodeFH2(d), Attr: decodeSattr2(d, s)}
		args = a
	case V2Lookup, V2Remove, V2Rmdir:
		a := own[DirOpArgs3](t, proc)
		*a = decodeDirOp2(d)
		args = a
	case V2Read:
		a := own[ReadArgs2](t, proc)
		*a = ReadArgs2{FH: decodeFH2(d), Offset: d.Uint32(), Count: d.Uint32(), TotalCount: d.Uint32()}
		args = a
	case V2Write:
		a := own[WriteArgs2](t, proc)
		a.FH = decodeFH2(d)
		d.Uint32() // beginoffset
		a.Offset = d.Uint32()
		d.Uint32() // totalcount
		a.Data = d.Opaque()
		args = a
	case V2Create, V2Mkdir:
		a := own[CreateArgs2](t, proc)
		*a = CreateArgs2{Where: decodeDirOp2(d), Attr: decodeSattr2(d, s)}
		args = a
	case V2Rename:
		a := own[RenameArgs3](t, proc)
		*a = RenameArgs3{From: decodeDirOp2(d), To: decodeDirOp2(d)}
		args = a
	case V2Link:
		a := own[LinkArgs3](t, proc)
		*a = LinkArgs3{FH: decodeFH2(d), To: decodeDirOp2(d)}
		args = a
	case V2Symlink:
		a := own[SymlinkArgs3](t, proc)
		*a = SymlinkArgs3{Where: decodeDirOp2(d), Target: d.String(), Attr: decodeSattr2(d, s)}
		args = a
	case V2Readdir:
		a := own[ReaddirArgs2](t, proc)
		*a = ReaddirArgs2{Dir: decodeFH2(d), Cookie: d.Uint32(), Count: d.Uint32()}
		args = a
	default:
		d.Fail(fmt.Errorf("%w: v2 proc %d", ErrBadProc, proc))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return args, nil
}

// EncodeRes2 writes the v2 result body for proc.
func EncodeRes2(e *xdr.Encoder, proc uint32, res any) error {
	switch proc {
	case V2Null, V2Root, V2Writecache:
		return nil
	case V2Getattr, V2Setattr, V2Write:
		r := res.(*AttrStatRes2)
		e.PutUint32(r.Status)
		if r.Status == OK {
			EncodeFattr2(e, r.Attr)
		}
	case V2Lookup, V2Create, V2Mkdir:
		r := res.(*DirOpRes2)
		e.PutUint32(r.Status)
		if r.Status == OK {
			encodeFH2(e, r.FH)
			EncodeFattr2(e, r.Attr)
		}
	case V2Readlink:
		r := res.(*StatusRes2)
		e.PutUint32(r.Status)
		if r.Status == OK {
			e.PutString("")
		}
	case V2Read:
		r := res.(*ReadRes2)
		e.PutUint32(r.Status)
		if r.Status == OK {
			EncodeFattr2(e, r.Attr)
			e.PutOpaque(r.Data)
		}
	case V2Remove, V2Rename, V2Link, V2Symlink, V2Rmdir:
		r := res.(*StatusRes2)
		e.PutUint32(r.Status)
	case V2Readdir:
		r := res.(*ReaddirRes2)
		e.PutUint32(r.Status)
		if r.Status == OK {
			for _, ent := range r.Entries {
				e.PutBool(true)
				e.PutUint32(uint32(ent.FileID))
				e.PutString(ent.Name)
				e.PutUint32(uint32(ent.Cookie))
			}
			e.PutBool(false)
			e.PutBool(r.EOF)
		}
	case V2Statfs:
		r := res.(*StatfsRes2)
		e.PutUint32(r.Status)
		if r.Status == OK {
			e.PutUint32(r.Tsize)
			e.PutUint32(r.Bsize)
			e.PutUint32(r.Blocks)
			e.PutUint32(r.Bfree)
			e.PutUint32(r.Bavail)
		}
	default:
		return fmt.Errorf("%w: v2 proc %d", ErrBadProc, proc)
	}
	return nil
}

// decodeRes2 parses the v2 result body for proc into s.
func decodeRes2(s *Decoder, proc uint32, body []byte) (any, error) {
	d := xdr.NewDecoder(body)
	t := s.procs(V2, true)
	var status uint32
	if proc != V2Null && proc != V2Root && proc != V2Writecache {
		status = d.Uint32()
	}
	ok := status == OK
	var res any
	switch proc {
	case V2Null, V2Root, V2Writecache:
	case V2Getattr, V2Setattr, V2Write:
		r := own[AttrStatRes2](t, proc)
		r.Status = status
		if ok {
			r.Attr = readFattr2(d, s)
		}
		res = r
	case V2Lookup, V2Create, V2Mkdir:
		r := own[DirOpRes2](t, proc)
		r.Status = status
		if ok {
			r.FH = decodeFH2(d)
			r.Attr = readFattr2(d, s)
		}
		res = r
	case V2Readlink:
		if ok {
			d.Opaque() // target path, not modeled
		}
		r := own[StatusRes2](t, proc)
		r.Status = status
		res = r
	case V2Read:
		r := own[ReadRes2](t, proc)
		r.Status = status
		if ok {
			r.Attr = readFattr2(d, s)
			r.Data = d.Opaque()
		}
		res = r
	case V2Remove, V2Rename, V2Link, V2Symlink, V2Rmdir:
		r := own[StatusRes2](t, proc)
		r.Status = status
		res = r
	case V2Readdir:
		r := own[ReaddirRes2](t, proc)
		r.Status = status
		if ok {
			entries := s.entries[:0]
			for d.Bool() {
				entries = append(entries, DirEntry{FileID: uint64(d.Uint32()), Name: d.String(), Cookie: uint64(d.Uint32())})
			}
			r.Entries = s.setEntries(entries)
			r.EOF = d.Bool()
		}
		res = r
	case V2Statfs:
		r := own[StatfsRes2](t, proc)
		r.Status = status
		if ok {
			r.Tsize = d.Uint32()
			r.Bsize = d.Uint32()
			r.Blocks = d.Uint32()
			r.Bfree = d.Uint32()
			r.Bavail = d.Uint32()
		}
		res = r
	default:
		d.Fail(fmt.Errorf("%w: v2 proc %d", ErrBadProc, proc))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
