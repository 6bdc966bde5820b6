package core

// Handle and procedure interning: the data plane's key types.
//
// A trace of tens of millions of messages names only tens of thousands
// of distinct file handles, yet the record model used to carry every
// handle as its own heap-allocated hex string, and every per-file
// reducer hashed those strings on every operation. This file replaces
// the strings with dense integer IDs:
//
//   - FH is a uint32 naming one distinct file-handle spelling. A
//     process-wide sharded intern table assigns IDs on first sight;
//     a reverse table renders the original spelling at output time.
//     Equal IDs mean equal handles, so reducers key maps by uint32
//     (one integer hash) and the router shards by a 4-byte mix instead
//     of re-hashing hex strings per record.
//   - ProcID is a byte naming a procedure. The NFS v2/v3 and MOUNT
//     vocabularies get fixed IDs (ProcRead, ProcLookup, ...), so the
//     hot-path taxonomy tests are integer compares; unknown names seen
//     in foreign traces are registered dynamically, preserving the text
//     format's round-trip, up to the 256-entry capacity of a byte.
//
// Interning is concurrency-safe (the parallel ingest decoders intern
// from many goroutines) and monotone: an ID, once assigned, never
// changes or disappears, which is what makes IDs stable across the
// files of a multi-file trace set and across serial/parallel decode of
// the same input. ID numbering does depend on arrival order, so IDs
// never appear in rendered output — handles are printed through
// FH.String, and anything sorted for presentation sorts by the rendered
// spelling, not the ID.

import (
	"errors"
	"sync"
	"sync/atomic"
)

// FH is an interned file handle: a dense ID into the process-wide
// handle table. The zero FH is the absent handle and renders as "".
type FH uint32

const fhShardCount = 64 // power of two; shard by string hash

type fhShard struct {
	mu sync.RWMutex
	m  map[string]FH
}

var fhTable = struct {
	shards [fhShardCount]fhShard
	mu     sync.Mutex               // serializes ID allocation
	rev    atomic.Pointer[[]string] // ID → spelling, lock-free reads
}{}

func init() {
	for i := range fhTable.shards {
		fhTable.shards[i].m = make(map[string]FH)
	}
	rev := []string{""} // FH(0) is the absent handle
	fhTable.rev.Store(&rev)
	fhTable.shards[fhHashString("")&(fhShardCount-1)].m[""] = 0
}

// fhHash is FNV-1a over the handle bytes, used only to pick a shard.
func fhHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

func fhHashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// InternFHBytes interns a handle spelling given as bytes. The hit path
// (every handle after its first sight) performs no allocation.
func InternFHBytes(b []byte) FH {
	sh := &fhTable.shards[fhHash(b)&(fhShardCount-1)]
	sh.mu.RLock()
	id, ok := sh.m[string(b)] // compiler avoids the []byte→string copy
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return internFHSlow(sh, string(b))
}

// InternFH interns a handle spelling.
func InternFH(s string) FH {
	sh := &fhTable.shards[fhHashString(s)&(fhShardCount-1)]
	sh.mu.RLock()
	id, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return internFHSlow(sh, s)
}

func internFHSlow(sh *fhShard, s string) FH {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.m[s]; ok {
		return id
	}
	fhTable.mu.Lock()
	rev := append(*fhTable.rev.Load(), s)
	id := FH(len(rev) - 1)
	fhTable.rev.Store(&rev)
	fhTable.mu.Unlock()
	sh.m[s] = id
	return id
}

// String renders the handle's original spelling ("" for the zero FH).
// The returned string is the canonical interned copy; no allocation.
func (fh FH) String() string { return (*fhTable.rev.Load())[fh] }

// ProcID is an interned procedure name. The fixed vocabulary below
// covers NFSv3, the NFSv2-only procedures, and the MOUNT protocol;
// other names register dynamically on first sight.
type ProcID uint8

// Fixed procedure IDs. The first 22 match the NFSv3 procedure numbers.
const (
	ProcNull ProcID = iota
	ProcGetattr
	ProcSetattr
	ProcLookup
	ProcAccess
	ProcReadlink
	ProcRead
	ProcWrite
	ProcCreate
	ProcMkdir
	ProcSymlink
	ProcMknod
	ProcRemove
	ProcRmdir
	ProcRename
	ProcLink
	ProcReaddir
	ProcReaddirplus
	ProcFsstat
	ProcFsinfo
	ProcPathconf
	ProcCommit
	// NFSv2-only procedures.
	ProcRoot
	ProcWritecache
	ProcStatfs
	// MOUNT procedures ("null" is shared with NFS).
	ProcMnt
	ProcDump
	ProcUmnt
	ProcUmntall
	ProcExport
	numStaticProcs
)

var staticProcNames = [numStaticProcs]string{
	"null", "getattr", "setattr", "lookup", "access", "readlink",
	"read", "write", "create", "mkdir", "symlink", "mknod",
	"remove", "rmdir", "rename", "link", "readdir", "readdirplus",
	"fsstat", "fsinfo", "pathconf", "commit",
	"root", "writecache", "statfs",
	"mnt", "dump", "umnt", "umntall", "export",
}

// ErrProcTableFull reports that the 256-entry procedure table cannot
// register yet another distinct procedure name.
var ErrProcTableFull = errors.New("core: procedure table full")

// staticProcs maps the fixed vocabulary to its IDs. It is filled at
// package initialization and never written again, so the decoders read
// it without a lock: nearly every record of every trace is answered
// here, and a shared RWMutex's reader count would bounce between their
// cores once per record.
var staticProcs = func() map[string]ProcID {
	m := make(map[string]ProcID, numStaticProcs)
	for i, name := range staticProcNames {
		m[name] = ProcID(i)
	}
	return m
}()

// procTable holds the names registered dynamically, after the fixed
// vocabulary; rev renders every ID, fixed and dynamic.
var procTable = struct {
	mu  sync.RWMutex
	m   map[string]ProcID
	rev atomic.Pointer[[]string]
}{m: make(map[string]ProcID)}

func init() {
	rev := staticProcNames[:]
	procTable.rev.Store(&rev)
}

// InternProcBytes interns a procedure name given as bytes; the hit path
// performs no allocation.
func InternProcBytes(b []byte) (ProcID, error) {
	if id, ok := staticProcs[string(b)]; ok {
		return id, nil
	}
	procTable.mu.RLock()
	id, ok := procTable.m[string(b)]
	procTable.mu.RUnlock()
	if ok {
		return id, nil
	}
	return internProcSlow(string(b))
}

// InternProc interns a procedure name.
func InternProc(s string) (ProcID, error) {
	if id, ok := staticProcs[s]; ok {
		return id, nil
	}
	procTable.mu.RLock()
	id, ok := procTable.m[s]
	procTable.mu.RUnlock()
	if ok {
		return id, nil
	}
	return internProcSlow(s)
}

func internProcSlow(s string) (ProcID, error) {
	procTable.mu.Lock()
	defer procTable.mu.Unlock()
	if id, ok := procTable.m[s]; ok {
		return id, nil
	}
	rev := *procTable.rev.Load()
	if len(rev) >= 256 {
		return 0, ErrProcTableFull
	}
	rev = append(rev, s)
	id := ProcID(len(rev) - 1)
	procTable.rev.Store(&rev)
	procTable.m[s] = id
	return id, nil
}

// MustProc interns a procedure name, panicking on table overflow. Use
// it for names from the fixed NFS/MOUNT vocabulary.
func MustProc(s string) ProcID {
	id, err := InternProc(s)
	if err != nil {
		panic(err)
	}
	return id
}

// String renders the procedure's name.
func (p ProcID) String() string {
	rev := *procTable.rev.Load()
	if int(p) < len(rev) {
		return rev[p]
	}
	return "" // unassigned ID; unreachable for interned values
}
