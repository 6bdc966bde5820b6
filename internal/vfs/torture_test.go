package vfs

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nfs"
)

// checkInvariants fails t unless fs passes CheckInvariants. Callers
// must have joined all writers.
func checkInvariants(t *testing.T, fs *FS) {
	t.Helper()
	if err := fs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTorture hammers a shared tree with mixed namespace,
// data, and attribute operations from many goroutines, then asserts the
// structural invariants. Run it under -race: the interleavings are the
// test.
func TestConcurrentTorture(t *testing.T) {
	fs := New()
	var tick atomic.Int64
	fs.Clock = func() float64 { return float64(tick.Add(1)) * 1e-6 }
	fs.QuotaPerUID = 1 << 20 // small, so ErrQuota paths get exercised

	const ndirs = 4
	dirs := make([]uint64, ndirs)
	for i := range dirs {
		d, err := fs.Mkdir(fs.Root(), fmt.Sprintf("top%d", i), 0, 0, 0755)
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = d.ID
	}

	workers := 8
	opsPer := 2500
	if testing.Short() {
		opsPer = 500
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			uid := uint32(100 + w%3) // shared UIDs stress the usage ledger
			name := func() string { return fmt.Sprintf("f%02d", rng.Intn(24)) }
			dir := func() uint64 { return dirs[rng.Intn(ndirs)] }
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(12) {
				case 0:
					fs.Create(dir(), name(), uid, uid, 0644)
				case 1:
					if ino, err := fs.Lookup(dir(), name()); err == nil && ino.Type == nfs.TypeReg {
						fs.Write(ino.ID, uint64(rng.Intn(8))*1024, uint64(rng.Intn(16*1024)))
					}
				case 2:
					if ino, err := fs.Lookup(dir(), name()); err == nil && ino.Type == nfs.TypeReg {
						fs.Read(ino.ID, uint64(rng.Intn(32*1024)), 8192)
					}
				case 3:
					fs.Remove(dir(), name())
				case 4:
					fs.Rename(dir(), name(), dir(), name())
				case 5:
					// Move directories too, including attempts to move a
					// top dir into another's subtree (may hit ErrInval).
					fs.Rename(fs.Root(), fmt.Sprintf("top%d", rng.Intn(ndirs)),
						dir(), fmt.Sprintf("sub%d", rng.Intn(6)))
				case 6:
					fs.Readdir(dir(), uint64(rng.Intn(4)), 8)
				case 7:
					d := dir()
					sub := fmt.Sprintf("sub%d", rng.Intn(6))
					if rng.Intn(2) == 0 {
						fs.Mkdir(d, sub, uid, uid, 0755)
					} else {
						fs.Rmdir(d, sub)
					}
				case 8:
					fs.Symlink(dir(), name(), "/some/target", uid, uid)
				case 9:
					if ino, err := fs.Lookup(dir(), name()); err == nil && ino.Type != nfs.TypeDir {
						fs.Link(ino.ID, dir(), fmt.Sprintf("ln%02d", rng.Intn(24)))
					}
					fs.Remove(dir(), fmt.Sprintf("ln%02d", rng.Intn(24)))
				case 10:
					if ino, err := fs.Lookup(dir(), name()); err == nil {
						fs.Attr(ino)
						fs.Path(ino.ID)
						if ino.Type == nfs.TypeReg {
							fs.Truncate(ino.ID, uint64(rng.Intn(64*1024)))
						}
					}
				case 11:
					var size *uint64
					if rng.Intn(2) == 0 {
						s := uint64(rng.Intn(32 * 1024))
						size = &s
					}
					mode := uint32(0600)
					if ino, err := fs.Lookup(dir(), name()); err == nil && ino.Type == nfs.TypeReg {
						fs.Setattr(ino.ID, size, &mode, nil, nil)
					}
					fs.TotalBytes()
					fs.NumInodes()
				}
			}
		}(w)
	}
	wg.Wait()
	checkInvariants(t, fs)
}

// TestConcurrentRenameLinkDeadlock drives the two-directory operations
// (Rename, Link) in both directions across the same pair of directories
// so any lock-ordering mistake deadlocks immediately.
func TestConcurrentRenameLinkDeadlock(t *testing.T) {
	fs := New()
	a, _ := fs.Mkdir(fs.Root(), "a", 0, 0, 0755)
	b, _ := fs.Mkdir(fs.Root(), "b", 0, 0, 0755)
	for i := 0; i < 8; i++ {
		if _, err := fs.Create(a.ID, fmt.Sprintf("f%d", i), 1, 1, 0644); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			from, to := a.ID, b.ID
			if w%2 == 1 {
				from, to = b.ID, a.ID
			}
			for i := 0; i < 2000; i++ {
				name := fmt.Sprintf("f%d", rng.Intn(8))
				switch rng.Intn(3) {
				case 0:
					fs.Rename(from, name, to, name)
				case 1:
					fs.Rename(to, name, from, name)
				case 2:
					if ino, err := fs.Lookup(from, name); err == nil && ino.Type == nfs.TypeReg {
						fs.Link(ino.ID, to, fmt.Sprintf("ln%d", rng.Intn(8)))
					}
					fs.Remove(to, fmt.Sprintf("ln%d", rng.Intn(8)))
				}
			}
		}(w)
	}
	wg.Wait()
	checkInvariants(t, fs)
}
