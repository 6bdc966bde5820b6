// Package vfs provides the in-memory UNIX-like filesystem that backs the
// NFS server simulator: inodes with attributes, directories, file
// handles, quotas, and block accounting.
//
// File contents are not stored — only sizes — because the tracer and
// every analysis in the paper operate on operation streams and byte
// counts, never on data. Storing content for a simulated week of CAMPUS
// traffic (135 GB/day read) would be pointless and impossible in memory.
// Reads and writes therefore manipulate size and timestamps exactly as a
// real server would, and the server layer synthesizes payload filler
// when a byte-faithful packet is required.
//
// # Concurrency
//
// FS is safe for concurrent use by multiple goroutines, so the socket
// serving layer can dispatch procedures in parallel. Locking is
// two-level:
//
//   - fs.mu (RWMutex) guards only the inode table (the id → *Inode map,
//     nextID, and the NumInodes/TotalBytes iteration). It is held for
//     map lookups and the brief insert/delete during create/unlink.
//   - fs.shards, a fixed array of RWMutexes keyed by inode ID
//     (ID % lockShards), guards every mutable inode field: attributes,
//     times, the children map of a directory, parent/name back-pointers,
//     and Nlink. Attribute reads (Getattr, Lookup, Attr) take the shard
//     read lock; mutations (Write, Create, Remove, ...) take the shard
//     write lock, so operations on different inodes run in parallel and
//     serialize only when they touch the same shard.
//   - fs.usageMu guards the per-UID usage map so a quota check and its
//     charge are one atomic step.
//   - fs.renameMu serializes cross-directory renames, making the
//     rename-cycle ancestor walk sound (the same job as Linux's
//     s_vfs_rename_mutex). Parent back-pointers change only under it.
//
// Lock ordering (outermost first): renameMu → shard locks in ascending
// shard index → fs.mu → usageMu. Operations that touch several inodes
// whose identities are only discovered by reading a directory
// (Remove, Rmdir, Rename) first peek under the directory's read lock,
// then acquire the full ordered lock set and re-validate the entry,
// retrying if another operation won the race. Inode IDs are never
// reused, so a re-validated entry cannot be an ABA impostor.
//
// The Clock field must be safe for concurrent use once the filesystem
// is shared between goroutines.
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/nfs"
)

// Filesystem errors, mapped to NFS status codes by the server layer.
var (
	ErrNotFound    = errors.New("vfs: no such file or directory")
	ErrExist       = errors.New("vfs: file exists")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrNotEmpty    = errors.New("vfs: directory not empty")
	ErrStale       = errors.New("vfs: stale file handle")
	ErrQuota       = errors.New("vfs: quota exceeded")
	ErrNameTooLong = errors.New("vfs: name too long")
	ErrInval       = errors.New("vfs: invalid argument")
	ErrTooBig      = errors.New("vfs: file too large")
)

// BlockSize is the filesystem block size used for Used accounting; the
// paper's analyses round to 8 KB blocks.
const BlockSize = 8192

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// MaxFileSize bounds file sizes and write/read extents so that block
// rounding and offset arithmetic can never overflow uint64. A hostile
// client wrapping offset+count past zero gets ErrInval/ErrTooBig
// instead of silently corrupting size or usage accounting.
const MaxFileSize = 1 << 62

// lockShards is the number of per-inode lock shards. Inode i is guarded
// by shard i % lockShards; collisions cost parallelism, never safety.
const lockShards = 64

// Inode is one filesystem object.
type Inode struct {
	ID    uint64
	Type  uint32 // nfs.TypeReg, TypeDir, TypeLnk
	Mode  uint32
	Nlink uint32
	UID   uint32
	GID   uint32
	Size  uint64
	Atime float64 // seconds since trace epoch
	Mtime float64
	Ctime float64

	// children maps name → inode ID for directories.
	children map[string]uint64
	// parent is the containing directory (directories only, for path
	// reconstruction; hard links to files may have several parents and
	// we record the first).
	parent uint64
	// name is the name under parent (first link).
	name string
	// Target is the symlink target, if Type == TypeLnk.
	Target string
}

// Used reports the block-rounded space consumption.
func (ino *Inode) Used() uint64 {
	return (ino.Size + BlockSize - 1) / BlockSize * BlockSize
}

// FS is an in-memory filesystem with a single root. See the package
// comment for the locking model.
type FS struct {
	mu     sync.RWMutex // inode table: inodes, nextID
	inodes map[uint64]*Inode
	nextID uint64
	root   uint64

	// shards guards per-inode state, keyed by ID % lockShards.
	shards [lockShards]sync.RWMutex

	// renameMu serializes cross-directory renames (ancestor walks).
	renameMu sync.Mutex

	// QuotaPerUID is the per-user byte quota (0 = unlimited); the
	// CAMPUS system gave each user 50 MB. Set it before sharing the
	// filesystem between goroutines.
	QuotaPerUID uint64
	usageMu     sync.Mutex
	usage       map[uint32]uint64

	// Clock supplies "now" for timestamps, driven by the simulator.
	Clock func() float64
}

// New creates a filesystem with an empty root directory owned by root.
func New() *FS {
	fs := &FS{
		inodes: make(map[uint64]*Inode),
		nextID: 2, // inode 2 is the root, as in FFS
		usage:  make(map[uint32]uint64),
		Clock:  func() float64 { return 0 },
	}
	root := &Inode{
		ID: 2, Type: nfs.TypeDir, Mode: 0755, Nlink: 2,
		children: make(map[string]uint64),
	}
	fs.inodes[2] = root
	fs.root = 2
	fs.nextID = 3
	return fs
}

// shardOf returns the lock shard guarding inode id.
func (fs *FS) shardOf(id uint64) *sync.RWMutex {
	return &fs.shards[id%lockShards]
}

// lockIDs write-locks the shards of the given inodes in ascending shard
// index (deduplicated) and returns the matching unlock function. This is
// the ordering rule that keeps two-directory operations (Rename, Link,
// Remove with its child) deadlock-free.
func (fs *FS) lockIDs(ids ...uint64) func() {
	var idx [4]int
	n := 0
	for _, id := range ids {
		s := int(id % lockShards)
		dup := false
		for i := 0; i < n; i++ {
			if idx[i] == s {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// Insertion sort: the set has at most four members.
		i := n
		for i > 0 && idx[i-1] > s {
			idx[i] = idx[i-1]
			i--
		}
		idx[i] = s
		n++
	}
	for i := 0; i < n; i++ {
		fs.shards[idx[i]].Lock()
	}
	return func() {
		for i := n - 1; i >= 0; i-- {
			fs.shards[idx[i]].Unlock()
		}
	}
}

// Root returns the root directory's inode ID.
func (fs *FS) Root() uint64 { return fs.root }

// RootFH returns the root file handle.
func (fs *FS) RootFH() nfs.FH { return nfs.MakeFH(fs.root) }

// NumInodes reports the number of live inodes.
func (fs *FS) NumInodes() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.inodes)
}

// get resolves an inode by ID under the table lock.
func (fs *FS) get(id uint64) (*Inode, error) {
	fs.mu.RLock()
	ino := fs.inodes[id]
	fs.mu.RUnlock()
	if ino == nil {
		return nil, ErrStale
	}
	return ino, nil
}

// tableInsert assigns the next inode ID and publishes ino in the table.
func (fs *FS) tableInsert(ino *Inode) {
	fs.mu.Lock()
	ino.ID = fs.nextID
	fs.nextID++
	fs.inodes[ino.ID] = ino
	fs.mu.Unlock()
}

// tableDelete removes id from the table. Callers hold the inode's shard
// lock, so an ID observed in a directory entry under its shard lock is
// always still resolvable.
func (fs *FS) tableDelete(id uint64) {
	fs.mu.Lock()
	delete(fs.inodes, id)
	fs.mu.Unlock()
}

// Get resolves an inode by ID.
func (fs *FS) Get(id uint64) (*Inode, error) {
	return fs.get(id)
}

// GetFH resolves an inode from a file handle.
func (fs *FS) GetFH(fh nfs.FH) (*Inode, error) {
	id, ok := fh.FileID()
	if !ok {
		return nil, ErrStale
	}
	return fs.get(id)
}

// Lookup resolves name within directory dir.
func (fs *FS) Lookup(dir uint64, name string) (*Inode, error) {
	sh := fs.shardOf(dir)
	sh.RLock()
	d, err := fs.get(dir)
	if err != nil {
		sh.RUnlock()
		return nil, err
	}
	if d.Type != nfs.TypeDir {
		sh.RUnlock()
		return nil, ErrNotDir
	}
	switch name {
	case ".", "":
		sh.RUnlock()
		return d, nil
	case "..":
		parent := d.parent
		sh.RUnlock()
		if parent == 0 {
			return d, nil
		}
		return fs.get(parent)
	}
	id, ok := d.children[name]
	sh.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return fs.get(id)
}

// peekChild reads dir's entry for name under the directory's shard read
// lock, for the two-phase lock protocols of Remove/Rmdir/Rename.
func (fs *FS) peekChild(dir uint64, name string) (id uint64, ok bool, err error) {
	sh := fs.shardOf(dir)
	sh.RLock()
	defer sh.RUnlock()
	d, err := fs.get(dir)
	if err != nil {
		return 0, false, err
	}
	if d.Type != nfs.TypeDir {
		return 0, false, ErrNotDir
	}
	id, ok = d.children[name]
	return id, ok, nil
}

func (fs *FS) checkName(name string) error {
	if len(name) > MaxNameLen {
		return ErrNameTooLong
	}
	if name == "" || name == "." || name == ".." || strings.ContainsRune(name, '/') {
		return ErrExist
	}
	return nil
}

// createNode allocates and links a new child of dir under the
// directory's shard write lock. charge is the byte usage to debit
// against the owner's quota before the node becomes visible (symlinks
// carry their target length; regular files and directories are free at
// creation).
func (fs *FS) createNode(dir uint64, name string, ino *Inode, charge int64) (*Inode, error) {
	if err := fs.checkName(name); err != nil {
		return nil, err
	}
	sh := fs.shardOf(dir)
	sh.Lock()
	defer sh.Unlock()
	d, err := fs.get(dir)
	if err != nil {
		return nil, err
	}
	if d.Type != nfs.TypeDir {
		return nil, ErrNotDir
	}
	if _, exists := d.children[name]; exists {
		return nil, ErrExist
	}
	if charge > 0 {
		if err := fs.chargeQuota(ino.UID, charge); err != nil {
			return nil, err
		}
	}
	now := fs.Clock()
	ino.Atime, ino.Mtime, ino.Ctime = now, now, now
	ino.parent, ino.name = dir, name
	fs.tableInsert(ino)
	d.children[name] = ino.ID
	if ino.Type == nfs.TypeDir {
		d.Nlink++
	}
	d.Mtime, d.Ctime = now, now
	return ino, nil
}

// Create makes a regular file under dir. It fails if the name exists.
func (fs *FS) Create(dir uint64, name string, uid, gid, mode uint32) (*Inode, error) {
	return fs.createNode(dir, name, &Inode{
		Type: nfs.TypeReg, Mode: mode, Nlink: 1, UID: uid, GID: gid,
	}, 0)
}

// Mkdir makes a directory under dir.
func (fs *FS) Mkdir(dir uint64, name string, uid, gid, mode uint32) (*Inode, error) {
	return fs.createNode(dir, name, &Inode{
		Type: nfs.TypeDir, Mode: mode, Nlink: 2, UID: uid, GID: gid,
		children: make(map[string]uint64),
	}, 0)
}

// Symlink makes a symbolic link under dir. The target length is charged
// against the owner's quota, matching how Remove and Rename later debit
// Used() when the link dies.
func (fs *FS) Symlink(dir uint64, name, target string, uid, gid uint32) (*Inode, error) {
	ino := &Inode{
		Type: nfs.TypeLnk, Mode: 0777, Nlink: 1, UID: uid, GID: gid,
		Size: uint64(len(target)), Target: target,
	}
	return fs.createNode(dir, name, ino, int64(ino.Used()))
}

// Remove unlinks a non-directory name from dir. The inode is freed when
// its link count reaches zero.
func (fs *FS) Remove(dir uint64, name string) error {
	for {
		id, ok, err := fs.peekChild(dir, name)
		if err != nil {
			return err
		}
		if !ok {
			return ErrNotFound
		}
		unlock := fs.lockIDs(dir, id)
		d, err := fs.get(dir)
		if err != nil {
			unlock()
			return err
		}
		if d.children[name] != id {
			unlock()
			continue // lost a race with another namespace op
		}
		ino, err := fs.get(id)
		if err != nil {
			unlock()
			return err
		}
		if ino.Type == nfs.TypeDir {
			unlock()
			return ErrIsDir
		}
		now := fs.Clock()
		delete(d.children, name)
		d.Mtime, d.Ctime = now, now
		ino.Nlink--
		ino.Ctime = now
		if ino.Nlink == 0 {
			fs.chargeUser(ino.UID, -int64(ino.Used()))
			fs.tableDelete(id)
		}
		unlock()
		return nil
	}
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(dir uint64, name string) error {
	for {
		id, ok, err := fs.peekChild(dir, name)
		if err != nil {
			return err
		}
		if !ok {
			return ErrNotFound
		}
		unlock := fs.lockIDs(dir, id)
		d, err := fs.get(dir)
		if err != nil {
			unlock()
			return err
		}
		if d.children[name] != id {
			unlock()
			continue
		}
		ino, err := fs.get(id)
		if err != nil {
			unlock()
			return err
		}
		if ino.Type != nfs.TypeDir {
			unlock()
			return ErrNotDir
		}
		if len(ino.children) != 0 {
			unlock()
			return ErrNotEmpty
		}
		now := fs.Clock()
		delete(d.children, name)
		d.Nlink--
		d.Mtime, d.Ctime = now, now
		fs.tableDelete(id)
		unlock()
		return nil
	}
}

// isAncestor reports whether anc lies on the parent chain of id
// (inclusive). Callers moving directories across directories hold
// renameMu, which freezes every parent pointer in the filesystem.
func (fs *FS) isAncestor(anc, id uint64) bool {
	for depth := 0; depth < 4096; depth++ {
		if id == anc {
			return true
		}
		if id == fs.root || id == 0 {
			return false
		}
		ino, err := fs.get(id)
		if err != nil {
			return false
		}
		id = ino.parent
	}
	return true // parent chain too deep to trust: refuse the move
}

// Rename moves fromName in fromDir to toName in toDir, replacing any
// existing non-directory target, as rename(2) does. Renaming a
// directory into its own subtree fails with ErrInval; renaming an entry
// onto itself is a successful no-op.
func (fs *FS) Rename(fromDir uint64, fromName string, toDir uint64, toName string) error {
	if err := fs.checkName(toName); err != nil {
		return err
	}
	if fromDir == toDir && fromName == toName {
		// rename("a", "a"): succeed without touching anything — the
		// replace path below would unlink the entry's own inode and
		// double-touch times.
		_, ok, err := fs.peekChild(fromDir, fromName)
		if err != nil {
			return err
		}
		if !ok {
			return ErrNotFound
		}
		return nil
	}
	crossDir := fromDir != toDir
	if crossDir {
		fs.renameMu.Lock()
		defer fs.renameMu.Unlock()
	}
	for {
		id, ok, err := fs.peekChild(fromDir, fromName)
		if err != nil {
			return err
		}
		if !ok {
			return ErrNotFound
		}
		victim, hasVictim, err := fs.peekChild(toDir, toName)
		if err != nil {
			return err
		}
		ids := []uint64{fromDir, toDir, id}
		if hasVictim {
			ids = append(ids, victim)
		}
		unlock := fs.lockIDs(ids...)
		fd, err := fs.get(fromDir)
		if err != nil {
			unlock()
			return err
		}
		td, err := fs.get(toDir)
		if err != nil {
			unlock()
			return err
		}
		vid, vok := td.children[toName]
		if fd.children[fromName] != id || vok != hasVictim || (vok && vid != victim) {
			unlock()
			continue // entries moved between peek and lock: retry
		}
		ino, err := fs.get(id)
		if err != nil {
			unlock()
			return err
		}
		if ino.Type == nfs.TypeDir && crossDir && fs.isAncestor(id, toDir) {
			// Moving /a to /a/b/c would orphan the subtree behind a
			// parent-pointer cycle.
			unlock()
			return ErrInval
		}
		if hasVictim {
			old, err := fs.get(victim)
			if err == nil {
				if old.Type == nfs.TypeDir {
					if len(old.children) != 0 {
						unlock()
						return ErrNotEmpty
					}
					td.Nlink--
					fs.tableDelete(victim)
				} else {
					old.Nlink--
					if old.Nlink == 0 {
						fs.chargeUser(old.UID, -int64(old.Used()))
						fs.tableDelete(victim)
					}
				}
			}
		}
		now := fs.Clock()
		delete(fd.children, fromName)
		td.children[toName] = id
		ino.name = toName
		if crossDir {
			// Parent pointers change only under renameMu, which keeps
			// concurrent ancestor walks race-free.
			ino.parent = toDir
		}
		ino.Ctime = now
		if ino.Type == nfs.TypeDir && crossDir {
			fd.Nlink--
			td.Nlink++
		}
		fd.Mtime, fd.Ctime = now, now
		td.Mtime, td.Ctime = now, now
		unlock()
		return nil
	}
}

// Link makes a hard link to target under dir.
func (fs *FS) Link(target uint64, dir uint64, name string) error {
	if err := fs.checkName(name); err != nil {
		return err
	}
	unlock := fs.lockIDs(target, dir)
	defer unlock()
	ino, err := fs.get(target)
	if err != nil {
		return err
	}
	if ino.Type == nfs.TypeDir {
		return ErrIsDir
	}
	d, err := fs.get(dir)
	if err != nil {
		return err
	}
	if d.Type != nfs.TypeDir {
		return ErrNotDir
	}
	if _, exists := d.children[name]; exists {
		return ErrExist
	}
	now := fs.Clock()
	d.children[name] = target
	ino.Nlink++
	ino.Ctime = now
	d.Mtime, d.Ctime = now, now
	return nil
}

// Write extends or overwrites [offset, offset+count) of a regular file,
// updating size, usage, and times; extensions are charged against the
// owner's quota. It returns the previous size so the server can build
// wcc data and the block-lifetime analysis can see extensions.
func (fs *FS) Write(id uint64, offset, count uint64) (prevSize uint64, err error) {
	sh := fs.shardOf(id)
	sh.Lock()
	defer sh.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return 0, err
	}
	if ino.Type == nfs.TypeDir {
		return 0, ErrIsDir
	}
	prevSize = ino.Size
	end := offset + count
	if end < offset {
		// uint64 wrap: an extension must not be mistaken for a no-op.
		return prevSize, ErrInval
	}
	if end > MaxFileSize {
		return prevSize, ErrTooBig
	}
	if end > ino.Size {
		newUsed := (end + BlockSize - 1) / BlockSize * BlockSize
		delta := int64(newUsed) - int64(ino.Used())
		if err := fs.chargeQuota(ino.UID, delta); err != nil {
			return prevSize, err
		}
		ino.Size = end
	}
	now := fs.Clock()
	ino.Mtime, ino.Ctime = now, now
	return prevSize, nil
}

// Read checks a read range and updates atime, returning the number of
// bytes available from offset (0 at or past EOF) and whether the read
// reaches EOF.
func (fs *FS) Read(id uint64, offset, count uint64) (n uint64, eof bool, err error) {
	sh := fs.shardOf(id)
	sh.Lock()
	defer sh.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return 0, false, err
	}
	if ino.Type == nfs.TypeDir {
		return 0, false, ErrIsDir
	}
	if offset+count < offset {
		return 0, false, ErrInval
	}
	ino.Atime = fs.Clock()
	if offset >= ino.Size {
		return 0, true, nil
	}
	n = ino.Size - offset
	if n > count {
		n = count
	}
	return n, offset+n >= ino.Size, nil
}

// truncateLocked implements Truncate under the inode's shard write lock.
func (fs *FS) truncateLocked(ino *Inode, size uint64) error {
	if ino.Type == nfs.TypeDir {
		return ErrIsDir
	}
	if size > MaxFileSize {
		return ErrTooBig
	}
	newUsed := (size + BlockSize - 1) / BlockSize * BlockSize
	delta := int64(newUsed) - int64(ino.Used())
	if err := fs.chargeQuota(ino.UID, delta); err != nil {
		return err
	}
	ino.Size = size
	now := fs.Clock()
	ino.Mtime, ino.Ctime = now, now
	return nil
}

// Truncate sets a regular file's size, releasing or charging usage. It
// returns the previous size.
func (fs *FS) Truncate(id uint64, size uint64) (prevSize uint64, err error) {
	sh := fs.shardOf(id)
	sh.Lock()
	defer sh.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return 0, err
	}
	prevSize = ino.Size
	if err := fs.truncateLocked(ino, size); err != nil {
		return prevSize, err
	}
	return prevSize, nil
}

// Setattr atomically applies the non-nil attribute changes under the
// inode's shard lock and returns the pre-operation wcc snapshot plus
// the post-operation attributes, as the SETATTR procedure needs. A
// failed truncate still reports before/after for wcc_data.
func (fs *FS) Setattr(id uint64, size *uint64, mode, uid, gid *uint32) (before *nfs.WccAttr, after *nfs.Fattr, err error) {
	sh := fs.shardOf(id)
	sh.Lock()
	defer sh.Unlock()
	ino, err := fs.get(id)
	if err != nil {
		return nil, nil, err
	}
	before = &nfs.WccAttr{Size: ino.Size,
		Mtime: nfs.TimeFromSeconds(ino.Mtime), Ctime: nfs.TimeFromSeconds(ino.Ctime)}
	if size != nil {
		if err := fs.truncateLocked(ino, *size); err != nil {
			return before, fs.attrLocked(ino), err
		}
	}
	if uid != nil && *uid != ino.UID {
		// A new owner takes over the file's usage, within its quota.
		if used := int64(ino.Used()); ino.Type != nfs.TypeDir && used > 0 {
			if err := fs.chargeQuota(*uid, used); err != nil {
				return before, fs.attrLocked(ino), err
			}
			fs.chargeUser(ino.UID, -used)
		}
		ino.UID = *uid
	}
	if mode != nil {
		ino.Mode = *mode
	}
	if gid != nil {
		ino.GID = *gid
	}
	return before, fs.attrLocked(ino), nil
}

// Readdir lists a directory in deterministic (sorted) order starting
// after the given cookie (0 = start). It returns at most max entries
// (0 = all) and whether the listing is complete.
func (fs *FS) Readdir(id uint64, cookie uint64, max int) ([]nfs.DirEntry, bool, error) {
	sh := fs.shardOf(id)
	sh.Lock()
	defer sh.Unlock()
	d, err := fs.get(id)
	if err != nil {
		return nil, false, err
	}
	if d.Type != nfs.TypeDir {
		return nil, false, ErrNotDir
	}
	d.Atime = fs.Clock()
	names := make([]string, 0, len(d.children))
	for name := range d.children {
		names = append(names, name)
	}
	sort.Strings(names)
	var entries []nfs.DirEntry
	for i, name := range names {
		ck := uint64(i + 1)
		if ck <= cookie {
			continue
		}
		entries = append(entries, nfs.DirEntry{FileID: d.children[name], Name: name, Cookie: ck})
		if max > 0 && len(entries) >= max {
			return entries, i == len(names)-1, nil
		}
	}
	return entries, true, nil
}

// attrLocked builds the attribute block; the caller holds the inode's
// shard lock (either mode).
func (fs *FS) attrLocked(ino *Inode) *nfs.Fattr {
	return &nfs.Fattr{
		Type: ino.Type, Mode: ino.Mode, Nlink: ino.Nlink,
		UID: ino.UID, GID: ino.GID,
		Size: ino.Size, Used: ino.Used(),
		FSID: 1, FileID: ino.ID,
		Atime: nfs.TimeFromSeconds(ino.Atime),
		Mtime: nfs.TimeFromSeconds(ino.Mtime),
		Ctime: nfs.TimeFromSeconds(ino.Ctime),
	}
}

// Attr builds the NFS attribute block for an inode, snapshotting its
// fields under the shard read lock.
func (fs *FS) Attr(ino *Inode) *nfs.Fattr {
	sh := fs.shardOf(ino.ID)
	sh.RLock()
	defer sh.RUnlock()
	return fs.attrLocked(ino)
}

// Wcc snapshots the pre-operation attributes used for v3 wcc_data.
func (fs *FS) Wcc(ino *Inode) *nfs.WccAttr {
	sh := fs.shardOf(ino.ID)
	sh.RLock()
	defer sh.RUnlock()
	return &nfs.WccAttr{Size: ino.Size,
		Mtime: nfs.TimeFromSeconds(ino.Mtime), Ctime: nfs.TimeFromSeconds(ino.Ctime)}
}

// Path reconstructs the path of an inode from parent pointers, for
// debugging and the filename analyses. Each step locks one inode, so
// the result is a best-effort snapshot under concurrent renames.
func (fs *FS) Path(id uint64) string {
	var parts []string
	for id != fs.root {
		sh := fs.shardOf(id)
		sh.RLock()
		ino, err := fs.get(id)
		if err != nil {
			sh.RUnlock()
			return "?" + path.Join(append([]string{"/"}, parts...)...)
		}
		name, parent := ino.name, ino.parent
		sh.RUnlock()
		parts = append([]string{name}, parts...)
		id = parent
		if len(parts) > 64 {
			break
		}
	}
	return "/" + strings.Join(parts, "/")
}

// MkdirAll creates every directory of a /-separated path, returning the
// final directory's inode. Concurrent MkdirAll calls on overlapping
// paths cooperate: losing a create race falls back to lookup.
func (fs *FS) MkdirAll(p string, uid, gid uint32) (*Inode, error) {
	cur := fs.root
	for _, part := range strings.Split(strings.Trim(p, "/"), "/") {
		if part == "" {
			continue
		}
		next, err := fs.Lookup(cur, part)
		if errors.Is(err, ErrNotFound) {
			next, err = fs.Mkdir(cur, part, uid, gid, 0755)
			if errors.Is(err, ErrExist) {
				next, err = fs.Lookup(cur, part)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("mkdirall %q at %q: %w", p, part, err)
		}
		cur = next.ID
	}
	return fs.get(cur)
}

// Usage reports a user's byte usage under quota accounting.
func (fs *FS) Usage(uid uint32) uint64 {
	fs.usageMu.Lock()
	defer fs.usageMu.Unlock()
	return fs.usage[uid]
}

// chargeQuota checks the quota and applies delta as one atomic step.
func (fs *FS) chargeQuota(uid uint32, delta int64) error {
	fs.usageMu.Lock()
	defer fs.usageMu.Unlock()
	if delta > 0 && fs.QuotaPerUID > 0 && fs.usage[uid]+uint64(delta) > fs.QuotaPerUID {
		return ErrQuota
	}
	fs.applyCharge(uid, delta)
	return nil
}

// chargeUser applies delta without a quota check (refunds, forced
// accounting moves).
func (fs *FS) chargeUser(uid uint32, delta int64) {
	fs.usageMu.Lock()
	fs.applyCharge(uid, delta)
	fs.usageMu.Unlock()
}

// applyCharge adjusts usage, clamping at zero; the caller holds usageMu.
func (fs *FS) applyCharge(uid uint32, delta int64) {
	if delta >= 0 {
		fs.usage[uid] += uint64(delta)
		return
	}
	dec := uint64(-delta)
	if fs.usage[uid] < dec {
		fs.usage[uid] = 0
		return
	}
	fs.usage[uid] -= dec
}

// TotalBytes reports the sum of all file sizes, for FSSTAT.
func (fs *FS) TotalBytes() uint64 {
	fs.mu.RLock()
	snapshot := make([]*Inode, 0, len(fs.inodes))
	for _, ino := range fs.inodes {
		snapshot = append(snapshot, ino)
	}
	fs.mu.RUnlock()
	var total uint64
	for _, ino := range snapshot {
		sh := fs.shardOf(ino.ID)
		sh.RLock()
		if ino.Type == nfs.TypeReg {
			total += ino.Size
		}
		sh.RUnlock()
	}
	return total
}
