package nfs

import (
	"fmt"

	"repro/internal/xdr"
)

// NFSv3 wire codecs (RFC 1813). Encoders write the argument or result
// body that follows the RPC header; decoders parse the same. Decoders
// read through the sticky xdr.Decoder: helpers return values only, and
// each exported Decode function checks d.Err once before returning.
// Composite literals list their fields in wire order: Go makes the calls
// in an expression from left to right, so each reads the next field.

func encodeFH3(e *xdr.Encoder, fh FH) { e.PutOpaque(fh) }

func decodeFH3(d *xdr.Decoder) FH {
	b := d.Opaque()
	if len(b) > V3MaxFHSize {
		d.Fail(fmt.Errorf("%w: fh of %d bytes", ErrDecode, len(b)))
		return nil
	}
	out := make(FH, len(b))
	copy(out, b)
	return out
}

func encodeTime3(e *xdr.Encoder, t Time) {
	e.PutUint32(t.Sec)
	e.PutUint32(t.Nsec)
}

func decodeTime3(d *xdr.Decoder) Time {
	return Time{Sec: d.Uint32(), Nsec: d.Uint32()}
}

// EncodeFattr3 writes a fattr3 block.
func EncodeFattr3(e *xdr.Encoder, a *Fattr) {
	e.PutUint32(a.Type)
	e.PutUint32(a.Mode)
	e.PutUint32(a.Nlink)
	e.PutUint32(a.UID)
	e.PutUint32(a.GID)
	e.PutUint64(a.Size)
	e.PutUint64(a.Used)
	e.PutUint32(0) // rdev major
	e.PutUint32(0) // rdev minor
	e.PutUint64(a.FSID)
	e.PutUint64(a.FileID)
	encodeTime3(e, a.Atime)
	encodeTime3(e, a.Mtime)
	encodeTime3(e, a.Ctime)
}

// DecodeFattr3 parses a fattr3 block. After a short or malformed read
// the result is meaningless and d.Err reports the failure.
func DecodeFattr3(d *xdr.Decoder) *Fattr {
	a := &Fattr{Type: d.Uint32(), Mode: d.Uint32(), Nlink: d.Uint32(), UID: d.Uint32(), GID: d.Uint32()}
	a.Size = d.Uint64()
	a.Used = d.Uint64()
	d.Uint64() // rdev (specdata3: major, minor)
	a.FSID = d.Uint64()
	a.FileID = d.Uint64()
	a.Atime = decodeTime3(d)
	a.Mtime = decodeTime3(d)
	a.Ctime = decodeTime3(d)
	return a
}

// encodePostOpAttr writes a post_op_attr (optional fattr3).
func encodePostOpAttr(e *xdr.Encoder, a *Fattr) {
	if a == nil {
		e.PutBool(false)
		return
	}
	e.PutBool(true)
	EncodeFattr3(e, a)
}

func decodePostOpAttr(d *xdr.Decoder) *Fattr {
	if !d.Bool() {
		return nil
	}
	return DecodeFattr3(d)
}

// WccAttr is the pre-operation attribute subset in wcc_data.
type WccAttr struct {
	Size  uint64
	Mtime Time
	Ctime Time
}

// WccData is the weak cache consistency block attached to v3 results
// that modify a file.
type WccData struct {
	Before *WccAttr
	After  *Fattr
}

func encodeWccData(e *xdr.Encoder, w *WccData) {
	if w == nil {
		e.PutBool(false)
		e.PutBool(false)
		return
	}
	if w.Before == nil {
		e.PutBool(false)
	} else {
		e.PutBool(true)
		e.PutUint64(w.Before.Size)
		encodeTime3(e, w.Before.Mtime)
		encodeTime3(e, w.Before.Ctime)
	}
	encodePostOpAttr(e, w.After)
}

func decodeWccData(d *xdr.Decoder) *WccData {
	var w WccData
	if d.Bool() {
		w.Before = &WccAttr{Size: d.Uint64(), Mtime: decodeTime3(d), Ctime: decodeTime3(d)}
	}
	w.After = decodePostOpAttr(d)
	return &w
}

func encodeSattr3(e *xdr.Encoder, s *Sattr) {
	putOpt32 := func(v *uint32) {
		if v == nil {
			e.PutBool(false)
		} else {
			e.PutBool(true)
			e.PutUint32(*v)
		}
	}
	putOpt32(s.Mode)
	putOpt32(s.UID)
	putOpt32(s.GID)
	if s.Size == nil {
		e.PutBool(false)
	} else {
		e.PutBool(true)
		e.PutUint64(*s.Size)
	}
	putOptTime := func(t *Time) {
		if t == nil {
			e.PutUint32(0) // DONT_CHANGE
		} else {
			e.PutUint32(2) // SET_TO_CLIENT_TIME
			encodeTime3(e, *t)
		}
	}
	putOptTime(s.Atime)
	putOptTime(s.Mtime)
}

func decodeSattr3(d *xdr.Decoder) Sattr {
	opt32 := func() *uint32 {
		if !d.Bool() {
			return nil
		}
		v := d.Uint32()
		return &v
	}
	optTime := func() *Time {
		how := d.Uint32()
		switch how {
		case 0: // DONT_CHANGE
			return nil
		case 1: // SET_TO_SERVER_TIME
			return &Time{}
		case 2: // SET_TO_CLIENT_TIME
			t := decodeTime3(d)
			return &t
		default:
			d.Fail(fmt.Errorf("%w: time_how %d", ErrDecode, how))
			return nil
		}
	}
	s := Sattr{Mode: opt32(), UID: opt32(), GID: opt32()}
	if d.Bool() {
		size := d.Uint64()
		s.Size = &size
	}
	s.Atime = optTime()
	s.Mtime = optTime()
	return s
}

// DirOpArgs3 is the (dir handle, name) pair used by LOOKUP, CREATE,
// REMOVE, and friends.
type DirOpArgs3 struct {
	Dir  FH
	Name string
}

func encodeDirOp(e *xdr.Encoder, a *DirOpArgs3) {
	encodeFH3(e, a.Dir)
	e.PutString(a.Name)
}

func decodeDirOp(d *xdr.Decoder) DirOpArgs3 {
	return DirOpArgs3{Dir: decodeFH3(d), Name: d.String()}
}

// --- Procedure argument structs ---

// GetattrArgs3 is the GETATTR argument.
type GetattrArgs3 struct{ FH FH }

// SetattrArgs3 is the SETATTR argument (guard omitted / guard=false).
type SetattrArgs3 struct {
	FH   FH
	Attr Sattr
}

// LookupArgs3 is the LOOKUP argument.
type LookupArgs3 = DirOpArgs3

// AccessArgs3 is the ACCESS argument.
type AccessArgs3 struct {
	FH     FH
	Access uint32
}

// ReadArgs3 is the READ argument.
type ReadArgs3 struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// Write stability levels.
const (
	Unstable = 0
	DataSync = 1
	FileSync = 2
)

// WriteArgs3 is the WRITE argument. Data may be synthetic filler.
type WriteArgs3 struct {
	FH     FH
	Offset uint64
	Count  uint32
	Stable uint32
	Data   []byte
}

// CreateArgs3 is the CREATE argument (UNCHECKED/GUARDED mode; the
// simulators use UNCHECKED).
type CreateArgs3 struct {
	Where DirOpArgs3
	Attr  Sattr
}

// MkdirArgs3 is the MKDIR argument.
type MkdirArgs3 struct {
	Where DirOpArgs3
	Attr  Sattr
}

// SymlinkArgs3 is the SYMLINK argument.
type SymlinkArgs3 struct {
	Where  DirOpArgs3
	Attr   Sattr
	Target string
}

// RenameArgs3 is the RENAME argument.
type RenameArgs3 struct {
	From DirOpArgs3
	To   DirOpArgs3
}

// LinkArgs3 is the LINK argument.
type LinkArgs3 struct {
	FH FH
	To DirOpArgs3
}

// ReaddirArgs3 is the READDIR argument (cookieverf zeroed).
type ReaddirArgs3 struct {
	Dir      FH
	Cookie   uint64
	MaxCount uint32
}

// CommitArgs3 is the COMMIT argument.
type CommitArgs3 struct {
	FH     FH
	Offset uint64
	Count  uint32
}

// --- Procedure result structs ---

// GetattrRes3 is the GETATTR result.
type GetattrRes3 struct {
	Status uint32
	Attr   *Fattr // set when Status == OK
}

// SetattrRes3 is the SETATTR result.
type SetattrRes3 struct {
	Status uint32
	Wcc    *WccData
}

// LookupRes3 is the LOOKUP result.
type LookupRes3 struct {
	Status  uint32
	FH      FH     // set when OK
	Attr    *Fattr // post-op attributes of the object
	DirAttr *Fattr // post-op attributes of the directory
}

// AccessRes3 is the ACCESS result.
type AccessRes3 struct {
	Status uint32
	Attr   *Fattr
	Access uint32
}

// ReadRes3 is the READ result.
type ReadRes3 struct {
	Status uint32
	Attr   *Fattr
	Count  uint32
	EOF    bool
	Data   []byte
}

// WriteRes3 is the WRITE result.
type WriteRes3 struct {
	Status    uint32
	Wcc       *WccData
	Count     uint32
	Committed uint32
}

// CreateRes3 is the CREATE/MKDIR/SYMLINK result.
type CreateRes3 struct {
	Status uint32
	FH     FH     // post-op fh, may be nil even on OK
	Attr   *Fattr // post-op attributes
	Wcc    *WccData
}

// RemoveRes3 is the REMOVE/RMDIR result.
type RemoveRes3 struct {
	Status uint32
	Wcc    *WccData
}

// RenameRes3 is the RENAME result.
type RenameRes3 struct {
	Status  uint32
	FromWcc *WccData
	ToWcc   *WccData
}

// ReaddirRes3 is the READDIR result.
type ReaddirRes3 struct {
	Status  uint32
	DirAttr *Fattr
	Entries []DirEntry
	EOF     bool
}

// FsstatRes3 is the FSSTAT result.
type FsstatRes3 struct {
	Status uint32
	Attr   *Fattr
	Tbytes uint64
	Fbytes uint64
	Abytes uint64
}

// CommitRes3 is the COMMIT result.
type CommitRes3 struct {
	Status uint32
	Wcc    *WccData
}

// --- Argument codecs ---

// EncodeArgs3 writes the argument body for proc; args must be the
// matching *Args3 struct (nil for NULL and parameterless procs).
func EncodeArgs3(e *xdr.Encoder, proc uint32, args any) error {
	switch proc {
	case V3Null:
		return nil
	case V3Getattr:
		encodeFH3(e, args.(*GetattrArgs3).FH)
	case V3Setattr:
		a := args.(*SetattrArgs3)
		encodeFH3(e, a.FH)
		encodeSattr3(e, &a.Attr)
		e.PutBool(false) // guard: no ctime check
	case V3Lookup:
		encodeDirOp(e, args.(*LookupArgs3))
	case V3Access:
		a := args.(*AccessArgs3)
		encodeFH3(e, a.FH)
		e.PutUint32(a.Access)
	case V3Readlink:
		encodeFH3(e, args.(*GetattrArgs3).FH)
	case V3Read:
		a := args.(*ReadArgs3)
		encodeFH3(e, a.FH)
		e.PutUint64(a.Offset)
		e.PutUint32(a.Count)
	case V3Write:
		a := args.(*WriteArgs3)
		encodeFH3(e, a.FH)
		e.PutUint64(a.Offset)
		e.PutUint32(a.Count)
		e.PutUint32(a.Stable)
		e.PutOpaque(a.Data)
	case V3Create:
		a := args.(*CreateArgs3)
		encodeDirOp(e, &a.Where)
		e.PutUint32(0) // UNCHECKED
		encodeSattr3(e, &a.Attr)
	case V3Mkdir:
		a := args.(*MkdirArgs3)
		encodeDirOp(e, &a.Where)
		encodeSattr3(e, &a.Attr)
	case V3Symlink:
		a := args.(*SymlinkArgs3)
		encodeDirOp(e, &a.Where)
		encodeSattr3(e, &a.Attr)
		e.PutString(a.Target)
	case V3Remove, V3Rmdir:
		encodeDirOp(e, args.(*DirOpArgs3))
	case V3Rename:
		a := args.(*RenameArgs3)
		encodeDirOp(e, &a.From)
		encodeDirOp(e, &a.To)
	case V3Link:
		a := args.(*LinkArgs3)
		encodeFH3(e, a.FH)
		encodeDirOp(e, &a.To)
	case V3Readdir:
		a := args.(*ReaddirArgs3)
		encodeFH3(e, a.Dir)
		e.PutUint64(a.Cookie)
		e.PutUint64(0) // cookieverf
		e.PutUint32(a.MaxCount)
	case V3Readdirplus:
		a := args.(*ReaddirArgs3)
		encodeFH3(e, a.Dir)
		e.PutUint64(a.Cookie)
		e.PutUint64(0) // cookieverf
		e.PutUint32(a.MaxCount)
		e.PutUint32(a.MaxCount)
	case V3Fsstat, V3Fsinfo, V3Pathconf:
		encodeFH3(e, args.(*GetattrArgs3).FH)
	case V3Commit:
		a := args.(*CommitArgs3)
		encodeFH3(e, a.FH)
		e.PutUint64(a.Offset)
		e.PutUint32(a.Count)
	default:
		return fmt.Errorf("%w: v3 proc %d", ErrBadProc, proc)
	}
	return nil
}

// DecodeArgs3 parses the argument body for proc, returning the matching
// *Args3 struct (nil for NULL).
func DecodeArgs3(proc uint32, body []byte) (any, error) {
	d := xdr.NewDecoder(body)
	var args any
	switch proc {
	case V3Null:
	case V3Getattr, V3Readlink, V3Fsstat, V3Fsinfo, V3Pathconf:
		args = &GetattrArgs3{FH: decodeFH3(d)}
	case V3Setattr:
		args = &SetattrArgs3{FH: decodeFH3(d), Attr: decodeSattr3(d)}
	case V3Lookup, V3Remove, V3Rmdir:
		where := decodeDirOp(d)
		args = &where
	case V3Access:
		args = &AccessArgs3{FH: decodeFH3(d), Access: d.Uint32()}
	case V3Read:
		args = &ReadArgs3{FH: decodeFH3(d), Offset: d.Uint64(), Count: d.Uint32()}
	case V3Write:
		args = &WriteArgs3{FH: decodeFH3(d), Offset: d.Uint64(), Count: d.Uint32(), Stable: d.Uint32(), Data: d.Opaque()}
	case V3Create:
		a := &CreateArgs3{Where: decodeDirOp(d)}
		if d.Uint32() != 2 { // EXCLUSIVE carries a verf instead of sattr
			a.Attr = decodeSattr3(d)
		}
		args = a
	case V3Mkdir:
		args = &MkdirArgs3{Where: decodeDirOp(d), Attr: decodeSattr3(d)}
	case V3Symlink:
		args = &SymlinkArgs3{Where: decodeDirOp(d), Attr: decodeSattr3(d), Target: d.String()}
	case V3Rename:
		args = &RenameArgs3{From: decodeDirOp(d), To: decodeDirOp(d)}
	case V3Link:
		args = &LinkArgs3{FH: decodeFH3(d), To: decodeDirOp(d)}
	case V3Readdir, V3Readdirplus:
		a := &ReaddirArgs3{Dir: decodeFH3(d), Cookie: d.Uint64()}
		d.Uint64() // cookieverf
		a.MaxCount = d.Uint32()
		if proc == V3Readdirplus {
			d.Uint32() // maxcount
		}
		args = a
	case V3Commit:
		args = &CommitArgs3{FH: decodeFH3(d), Offset: d.Uint64(), Count: d.Uint32()}
	default:
		d.Fail(fmt.Errorf("%w: v3 proc %d", ErrBadProc, proc))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return args, nil
}

// --- Result codecs ---

// EncodeRes3 writes the result body for proc; res must be the matching
// *Res3 struct (nil for NULL).
func EncodeRes3(e *xdr.Encoder, proc uint32, res any) error {
	switch proc {
	case V3Null:
		return nil
	case V3Getattr:
		r := res.(*GetattrRes3)
		e.PutUint32(r.Status)
		if r.Status == OK {
			EncodeFattr3(e, r.Attr)
		}
	case V3Setattr:
		r := res.(*SetattrRes3)
		e.PutUint32(r.Status)
		encodeWccData(e, r.Wcc)
	case V3Lookup:
		r := res.(*LookupRes3)
		e.PutUint32(r.Status)
		if r.Status == OK {
			encodeFH3(e, r.FH)
			encodePostOpAttr(e, r.Attr)
		}
		encodePostOpAttr(e, r.DirAttr)
	case V3Access:
		r := res.(*AccessRes3)
		e.PutUint32(r.Status)
		encodePostOpAttr(e, r.Attr)
		if r.Status == OK {
			e.PutUint32(r.Access)
		}
	case V3Readlink:
		r := res.(*LookupRes3) // reuse: FH unused, Attr + status
		e.PutUint32(r.Status)
		encodePostOpAttr(e, r.Attr)
		if r.Status == OK {
			e.PutString("") // target path not modeled
		}
	case V3Read:
		r := res.(*ReadRes3)
		e.PutUint32(r.Status)
		encodePostOpAttr(e, r.Attr)
		if r.Status == OK {
			e.PutUint32(r.Count)
			e.PutBool(r.EOF)
			e.PutOpaque(r.Data)
		}
	case V3Write:
		r := res.(*WriteRes3)
		e.PutUint32(r.Status)
		encodeWccData(e, r.Wcc)
		if r.Status == OK {
			e.PutUint32(r.Count)
			e.PutUint32(r.Committed)
			e.PutUint64(0) // writeverf
		}
	case V3Create, V3Mkdir, V3Symlink, V3Mknod:
		r := res.(*CreateRes3)
		e.PutUint32(r.Status)
		if r.Status == OK {
			if r.FH != nil {
				e.PutBool(true)
				encodeFH3(e, r.FH)
			} else {
				e.PutBool(false)
			}
			encodePostOpAttr(e, r.Attr)
		}
		encodeWccData(e, r.Wcc)
	case V3Remove, V3Rmdir:
		r := res.(*RemoveRes3)
		e.PutUint32(r.Status)
		encodeWccData(e, r.Wcc)
	case V3Rename:
		r := res.(*RenameRes3)
		e.PutUint32(r.Status)
		encodeWccData(e, r.FromWcc)
		encodeWccData(e, r.ToWcc)
	case V3Link:
		r := res.(*RemoveRes3) // status + attr/wcc shape
		e.PutUint32(r.Status)
		encodePostOpAttr(e, nil)
		encodeWccData(e, r.Wcc)
	case V3Readdir, V3Readdirplus:
		r := res.(*ReaddirRes3)
		e.PutUint32(r.Status)
		encodePostOpAttr(e, r.DirAttr)
		if r.Status == OK {
			e.PutUint64(0) // cookieverf
			for _, ent := range r.Entries {
				e.PutBool(true)
				e.PutUint64(ent.FileID)
				e.PutString(ent.Name)
				e.PutUint64(ent.Cookie)
				if proc == V3Readdirplus {
					encodePostOpAttr(e, nil)
					e.PutBool(false) // no fh3
				}
			}
			e.PutBool(false) // end of list
			e.PutBool(r.EOF)
		}
	case V3Fsstat:
		r := res.(*FsstatRes3)
		e.PutUint32(r.Status)
		encodePostOpAttr(e, r.Attr)
		if r.Status == OK {
			e.PutUint64(r.Tbytes)
			e.PutUint64(r.Fbytes)
			e.PutUint64(r.Abytes)
			e.PutUint64(0) // tfiles
			e.PutUint64(0) // ffiles
			e.PutUint64(0) // afiles
			e.PutUint32(0) // invarsec
		}
	case V3Fsinfo:
		r := res.(*GetattrRes3)
		e.PutUint32(r.Status)
		encodePostOpAttr(e, r.Attr)
		if r.Status == OK {
			for i := 0; i < 7; i++ {
				e.PutUint32(32768) // rtmax..dtpref
			}
			e.PutUint64(1 << 40) // maxfilesize
			encodeTime3(e, Time{Sec: 0, Nsec: 1})
			e.PutUint32(0x1b) // properties
		}
	case V3Pathconf:
		r := res.(*GetattrRes3)
		e.PutUint32(r.Status)
		encodePostOpAttr(e, r.Attr)
		if r.Status == OK {
			e.PutUint32(32)  // linkmax
			e.PutUint32(255) // name_max
			e.PutBool(true)  // no_trunc
			e.PutBool(false) // chown_restricted
			e.PutBool(true)  // case_insensitive=false? keep shape
			e.PutBool(true)  // case_preserving
		}
	case V3Commit:
		r := res.(*CommitRes3)
		e.PutUint32(r.Status)
		encodeWccData(e, r.Wcc)
		if r.Status == OK {
			e.PutUint64(0) // writeverf
		}
	default:
		return fmt.Errorf("%w: v3 proc %d", ErrBadProc, proc)
	}
	return nil
}

// DecodeRes3 parses the result body for proc.
func DecodeRes3(proc uint32, body []byte) (any, error) {
	d := xdr.NewDecoder(body)
	var status uint32
	if proc != V3Null {
		status = d.Uint32()
	}
	ok := status == OK
	var res any
	switch proc {
	case V3Null:
	case V3Getattr:
		r := &GetattrRes3{Status: status}
		if ok {
			r.Attr = DecodeFattr3(d)
		}
		res = r
	case V3Setattr:
		res = &SetattrRes3{Status: status, Wcc: decodeWccData(d)}
	case V3Lookup:
		r := &LookupRes3{Status: status}
		if ok {
			r.FH = decodeFH3(d)
			r.Attr = decodePostOpAttr(d)
		}
		r.DirAttr = decodePostOpAttr(d)
		res = r
	case V3Access:
		r := &AccessRes3{Status: status, Attr: decodePostOpAttr(d)}
		if ok {
			r.Access = d.Uint32()
		}
		res = r
	case V3Readlink:
		r := &LookupRes3{Status: status, Attr: decodePostOpAttr(d)}
		if ok {
			d.Opaque() // target path, not modeled
		}
		res = r
	case V3Read:
		r := &ReadRes3{Status: status, Attr: decodePostOpAttr(d)}
		if ok {
			r.Count = d.Uint32()
			r.EOF = d.Bool()
			r.Data = d.Opaque()
		}
		res = r
	case V3Write:
		r := &WriteRes3{Status: status, Wcc: decodeWccData(d)}
		if ok {
			r.Count = d.Uint32()
			r.Committed = d.Uint32()
			d.Uint64() // writeverf
		}
		res = r
	case V3Create, V3Mkdir, V3Symlink, V3Mknod:
		r := &CreateRes3{Status: status}
		if ok {
			if d.Bool() {
				r.FH = decodeFH3(d)
			}
			r.Attr = decodePostOpAttr(d)
		}
		r.Wcc = decodeWccData(d)
		res = r
	case V3Remove, V3Rmdir:
		res = &RemoveRes3{Status: status, Wcc: decodeWccData(d)}
	case V3Rename:
		res = &RenameRes3{Status: status, FromWcc: decodeWccData(d), ToWcc: decodeWccData(d)}
	case V3Link:
		decodePostOpAttr(d) // the linked file's attributes, not modeled
		res = &RemoveRes3{Status: status, Wcc: decodeWccData(d)}
	case V3Readdir, V3Readdirplus:
		r := &ReaddirRes3{Status: status, DirAttr: decodePostOpAttr(d)}
		if ok {
			d.Uint64() // cookieverf
			for d.Bool() {
				r.Entries = append(r.Entries, DirEntry{FileID: d.Uint64(), Name: d.String(), Cookie: d.Uint64()})
				if proc == V3Readdirplus {
					decodePostOpAttr(d)
					if d.Bool() {
						decodeFH3(d)
					}
				}
			}
			r.EOF = d.Bool()
		}
		res = r
	case V3Fsstat:
		r := &FsstatRes3{Status: status, Attr: decodePostOpAttr(d)}
		if ok {
			r.Tbytes = d.Uint64()
			r.Fbytes = d.Uint64()
			r.Abytes = d.Uint64()
		}
		res = r
	case V3Fsinfo, V3Pathconf:
		res = &GetattrRes3{Status: status, Attr: decodePostOpAttr(d)}
	case V3Commit:
		res = &CommitRes3{Status: status, Wcc: decodeWccData(d)}
	default:
		d.Fail(fmt.Errorf("%w: v3 proc %d", ErrBadProc, proc))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
