package vfs

import (
	"errors"
	"fmt"

	"repro/internal/nfs"
)

// CheckInvariants reports whether a quiescent filesystem is
// structurally sound: every inode is reachable from the root, link
// counts match directory entries, the tree is acyclic, and the per-UID
// usage ledger equals the sum of live Used(). It reports every broken
// invariant it finds, or stops at the first cycle or dangling entry.
// It takes no locks: the caller must have joined every writer.
func (fs *FS) CheckInvariants() error {
	var errs []error
	entries := make(map[uint64]int) // inode → directory entries referencing it
	subdirs := make(map[uint64]int) // dir → child directory count
	visited := make(map[uint64]bool)
	var walk func(id uint64) error
	walk = func(id uint64) error {
		if visited[id] {
			return fmt.Errorf("directory cycle through inode %d", id)
		}
		visited[id] = true
		for name, cid := range fs.inodes[id].children {
			c := fs.inodes[cid]
			if c == nil {
				return fmt.Errorf("entry %q in dir %d points at missing inode %d", name, id, cid)
			}
			entries[cid]++
			if c.Type == nfs.TypeDir {
				subdirs[id]++
				if entries[cid] > 1 {
					return fmt.Errorf("directory inode %d has %d links", cid, entries[cid])
				}
				if err := walk(cid); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(fs.root); err != nil {
		return err
	}

	usageWant := make(map[uint32]uint64)
	for id, ino := range fs.inodes {
		if ino.Type != nfs.TypeDir {
			usageWant[ino.UID] += ino.Used()
		}
		if id != fs.root && entries[id] == 0 {
			errs = append(errs, fmt.Errorf("orphan inode %d (type %d, nlink %d)", id, ino.Type, ino.Nlink))
			continue
		}
		if ino.Type == nfs.TypeDir {
			if want := uint32(2 + subdirs[id]); ino.Nlink != want {
				errs = append(errs, fmt.Errorf("dir %d nlink = %d, want %d", id, ino.Nlink, want))
			}
		} else if ino.Nlink != uint32(entries[id]) {
			errs = append(errs, fmt.Errorf("inode %d nlink = %d, want %d entries", id, ino.Nlink, entries[id]))
		}
	}
	for uid, got := range fs.usage {
		if got != usageWant[uid] {
			errs = append(errs, fmt.Errorf("usage[%d] = %d, want %d (sum of live Used)", uid, got, usageWant[uid]))
		}
	}
	for uid, want := range usageWant {
		if _, ok := fs.usage[uid]; !ok && want != 0 {
			errs = append(errs, fmt.Errorf("usage[%d] = 0, want %d", uid, want))
		}
	}
	return errors.Join(errs...)
}
