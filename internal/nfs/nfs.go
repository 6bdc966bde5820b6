// Package nfs implements wire codecs for the NFS version 2 (RFC 1094)
// and version 3 (RFC 1813) protocols: file handles, attributes, and the
// argument/result bodies of every procedure.
//
// Two layers are provided. The typed layer (v2.go, v3.go) gives exact
// per-procedure structs with Encode/Decode, used by the client and
// server simulators to produce byte-faithful traffic; EncodeArgs,
// DecodeArgs, EncodeRes and DecodeRes pick the version's codec. The
// semantic layer (semantic.go) decodes either version into version-
// neutral CallInfo/ReplyInfo and, through CallRecord and ReplyRecord,
// into the NFS fields of a core.Record: what the paper's tracer emits,
// one record per call or reply with the fields the analyses need
// (handle, name, offset, count, attributes, status). The sniffer, the
// server's trace tap and the simulated client all build records there.
// Every decode fills a Decoder (decoder.go): a caller's own, reused
// from body to body, or a fresh one over a copy of the body for the
// package functions, whose results are then the caller's.
package nfs

import (
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/xdr"
)

// Protocol versions.
const (
	V2 = 2
	V3 = 3
)

// NFSv3 procedure numbers (RFC 1813 §3).
const (
	V3Null        = 0
	V3Getattr     = 1
	V3Setattr     = 2
	V3Lookup      = 3
	V3Access      = 4
	V3Readlink    = 5
	V3Read        = 6
	V3Write       = 7
	V3Create      = 8
	V3Mkdir       = 9
	V3Symlink     = 10
	V3Mknod       = 11
	V3Remove      = 12
	V3Rmdir       = 13
	V3Rename      = 14
	V3Link        = 15
	V3Readdir     = 16
	V3Readdirplus = 17
	V3Fsstat      = 18
	V3Fsinfo      = 19
	V3Pathconf    = 20
	V3Commit      = 21
	V3NumProcs    = 22
)

// NFSv2 procedure numbers (RFC 1094 §2.2).
const (
	V2Null       = 0
	V2Getattr    = 1
	V2Setattr    = 2
	V2Root       = 3
	V2Lookup     = 4
	V2Readlink   = 5
	V2Read       = 6
	V2Writecache = 7
	V2Write      = 8
	V2Create     = 9
	V2Remove     = 10
	V2Rename     = 11
	V2Link       = 12
	V2Symlink    = 13
	V2Mkdir      = 14
	V2Rmdir      = 15
	V2Readdir    = 16
	V2Statfs     = 17
	V2NumProcs   = 18
)

// NFS status codes common to both versions (the subset the simulators
// produce).
const (
	OK             = 0
	ErrPerm        = 1
	ErrNoEnt       = 2
	ErrIO          = 5
	ErrAcces       = 13
	ErrExist       = 17
	ErrNotDir      = 20
	ErrIsDir       = 21
	ErrInval       = 22
	ErrFBig        = 27
	ErrNoSpc       = 28
	ErrRofs        = 30
	ErrNameTooLong = 63
	ErrNotEmpty    = 66
	ErrDQuot       = 69
	ErrStale       = 70
	ErrBadHandle   = 10001
	ErrNotSupp     = 10004
	ErrTooSmall    = 10005
	ErrJukebox     = 10008
)

// File types (ftype3; v2 uses the same values for the types it has).
const (
	TypeReg  = 1
	TypeDir  = 2
	TypeBlk  = 3
	TypeChr  = 4
	TypeLnk  = 5
	TypeSock = 6
	TypeFifo = 7
)

// V3MaxFHSize is the maximum file handle length in NFSv3.
const V3MaxFHSize = 64

// V2FHSize is the fixed file handle length in NFSv2.
const V2FHSize = 32

var (
	// ErrBadProc reports an out-of-range procedure number.
	ErrBadProc = errors.New("nfs: unknown procedure")
	// ErrDecode reports a malformed procedure body.
	ErrDecode = errors.New("nfs: malformed message body")
)

// EncodeArgs writes the argument body of proc in the given version,
// through EncodeArgs3 or EncodeArgs2.
func EncodeArgs(version uint32, e *xdr.Encoder, proc uint32, args any) error {
	switch version {
	case V3:
		return EncodeArgs3(e, proc, args)
	case V2:
		return EncodeArgs2(e, proc, args)
	}
	return ErrBadProc
}

// EncodeRes writes the result body of proc in the given version,
// through EncodeRes3 or EncodeRes2. A nil result (NULL, and v2's void
// procedures) writes nothing.
func EncodeRes(version uint32, e *xdr.Encoder, proc uint32, res any) error {
	if res == nil {
		return nil
	}
	switch version {
	case V3:
		return EncodeRes3(e, proc, res)
	case V2:
		return EncodeRes2(e, proc, res)
	}
	return ErrBadProc
}

// v3ProcNames are the lower-case procedure names as they appear in
// nfsdump-style trace records.
var v3ProcNames = [V3NumProcs]string{
	"null", "getattr", "setattr", "lookup", "access", "readlink",
	"read", "write", "create", "mkdir", "symlink", "mknod",
	"remove", "rmdir", "rename", "link", "readdir", "readdirplus",
	"fsstat", "fsinfo", "pathconf", "commit",
}

var v2ProcNames = [V2NumProcs]string{
	"null", "getattr", "setattr", "root", "lookup", "readlink",
	"read", "writecache", "write", "create", "remove", "rename",
	"link", "symlink", "mkdir", "rmdir", "readdir", "statfs",
}

// ProcName returns the lower-case name for a procedure of the given
// protocol version, or "proc-N" for unknown numbers.
func ProcName(version, proc uint32) string {
	switch version {
	case V3:
		if proc < V3NumProcs {
			return v3ProcNames[proc]
		}
	case V2:
		if proc < V2NumProcs {
			return v2ProcNames[proc]
		}
	}
	return fmt.Sprintf("proc-%d", proc)
}

// ProcByName returns the v3 procedure number for a name produced by
// ProcName, with ok=false if the name is unknown.
func ProcByName(name string) (proc uint32, ok bool) {
	for i, n := range v3ProcNames {
		if n == name {
			return uint32(i), true
		}
	}
	return 0, false
}

// FH is an NFS file handle: opaque bytes assigned by the server. The
// simulators use 8-byte handles (a uint64 inode number); real traces may
// carry up to 64 bytes.
type FH []byte

// String renders the handle as lowercase hex, the form used in trace
// records.
func (fh FH) String() string { return hex.EncodeToString(fh) }

// Intern returns the trace-record handle for fh: its hex spelling,
// interned. The spelling is rendered into a stack buffer rather than a
// string, since it is only looked up and copied only the first time the
// table sees it; a handle longer than any protocol allows (the MOUNT
// reply's, from a hostile capture) takes the string path instead.
func (fh FH) Intern() core.FH { return fh.internIn(nil) }

// internIn is Intern through the memo m, or through the process-wide
// table when m is nil.
func (fh FH) internIn(m *core.FHMemo) core.FH {
	if len(fh) > V3MaxFHSize {
		return core.InternFH(fh.String())
	}
	var spelling [2 * V3MaxFHSize]byte
	return m.Intern(spelling[:hex.Encode(spelling[:], fh)])
}

// Equal reports whether two handles are byte-equal.
func (fh FH) Equal(other FH) bool {
	if len(fh) != len(other) {
		return false
	}
	for i := range fh {
		if fh[i] != other[i] {
			return false
		}
	}
	return true
}

// Key returns the handle as a string usable as a map key.
func (fh FH) Key() string { return string(fh) }

// MakeFH builds the simulator's 8-byte handle from a file ID.
func MakeFH(fileid uint64) FH {
	return FH{
		byte(fileid >> 56), byte(fileid >> 48), byte(fileid >> 40), byte(fileid >> 32),
		byte(fileid >> 24), byte(fileid >> 16), byte(fileid >> 8), byte(fileid),
	}
}

// FileID recovers the file ID from a simulator handle; ok is false for
// foreign handle sizes.
func (fh FH) FileID() (uint64, bool) {
	if len(fh) != 8 {
		return 0, false
	}
	var v uint64
	for _, b := range fh {
		v = v<<8 | uint64(b)
	}
	return v, true
}

// Time is the NFS timestamp: seconds and a fractional part whose unit
// depends on the protocol version (nsec in v3, usec in v2). The codecs
// normalize to nanoseconds.
type Time struct {
	Sec  uint32
	Nsec uint32
}

// Seconds returns the timestamp as float seconds.
func (t Time) Seconds() float64 { return float64(t.Sec) + float64(t.Nsec)/1e9 }

// TimeFromSeconds builds a Time from float seconds.
func TimeFromSeconds(s float64) Time {
	sec := uint32(s)
	return Time{Sec: sec, Nsec: uint32((s - float64(sec)) * 1e9)}
}

// Fattr is the version-neutral file attribute block. It carries the v3
// field widths; the v2 codec narrows on encode.
type Fattr struct {
	Type   uint32
	Mode   uint32
	Nlink  uint32
	UID    uint32
	GID    uint32
	Size   uint64
	Used   uint64
	FSID   uint64
	FileID uint64
	Atime  Time
	Mtime  Time
	Ctime  Time
}

// Sattr carries the settable attribute subset for SETATTR/CREATE.
// Each pointer is nil when the field is not being set.
type Sattr struct {
	Mode  *uint32
	UID   *uint32
	GID   *uint32
	Size  *uint64
	Atime *Time
	Mtime *Time
}

// DirEntry is one entry of a READDIR result.
type DirEntry struct {
	FileID uint64
	Name   string
	Cookie uint64
}
