package vfs

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nfs"
)

// TestSymlinkChargesQuota pins the symlink accounting fix: the target
// length must be charged at create so the debit at Remove/Rename
// balances instead of silently underflowing the owner's usage.
func TestSymlinkChargesQuota(t *testing.T) {
	fs := newFS()
	if _, err := fs.Symlink(fs.Root(), "link", "/some/target", 501, 100); err != nil {
		t.Fatal(err)
	}
	if got := fs.Usage(501); got != BlockSize {
		t.Fatalf("usage after symlink = %d, want %d", got, BlockSize)
	}
	// The historic bug: removing the (uncharged) symlink debited Used()
	// and clamped at zero, wiping out charges for other files. With the
	// fix, an unrelated file's usage survives the symlink's lifecycle.
	f, _ := fs.Create(fs.Root(), "file", 501, 100, 0644)
	if _, err := fs.Write(f.ID, 0, 5000); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(fs.Root(), "link"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Usage(501); got != BlockSize {
		t.Fatalf("usage after removing symlink = %d, want %d (file's block)", got, BlockSize)
	}
}

// TestSymlinkQuotaEnforced checks a symlink cannot blow past the quota
// and that a rejected symlink leaves no trace.
func TestSymlinkQuotaEnforced(t *testing.T) {
	fs := newFS()
	fs.QuotaPerUID = BlockSize
	if _, err := fs.Symlink(fs.Root(), "a", "/t", 7, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Symlink(fs.Root(), "b", "/t", 7, 7); !errors.Is(err, ErrQuota) {
		t.Fatalf("second symlink: %v, want ErrQuota", err)
	}
	if _, err := fs.Lookup(fs.Root(), "b"); !errors.Is(err, ErrNotFound) {
		t.Fatal("rejected symlink left an entry behind")
	}
	if got := fs.Usage(7); got != BlockSize {
		t.Fatalf("usage = %d, want %d", got, BlockSize)
	}
	checkInvariants(t, fs)
}

// TestWriteOffsetOverflow pins the uint64 wrap guard: offset+count
// wrapping past zero must be rejected, not treated as a no-op write.
func TestWriteOffsetOverflow(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(fs.Root(), "f", 1, 1, 0644)
	fs.Write(f.ID, 0, 5000)
	prev, err := fs.Write(f.ID, math.MaxUint64-100, 200)
	if !errors.Is(err, ErrInval) {
		t.Fatalf("wrapping write: %v, want ErrInval", err)
	}
	if prev != 5000 || f.Size != 5000 {
		t.Fatalf("size disturbed: prev=%d size=%d", prev, f.Size)
	}
	if got := fs.Usage(1); got != BlockSize {
		t.Fatalf("usage disturbed: %d", got)
	}
	// Oversize without wrap is ErrTooBig.
	if _, err := fs.Write(f.ID, MaxFileSize, 1); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversize write: %v, want ErrTooBig", err)
	}
	// Boundary: ending exactly at MaxFileSize is legal (quota unlimited).
	if _, err := fs.Write(f.ID, MaxFileSize-8, 8); err != nil {
		t.Fatalf("boundary write: %v", err)
	}
	if f.Size != MaxFileSize {
		t.Fatalf("size = %d, want MaxFileSize", f.Size)
	}
}

// TestReadOffsetOverflow: a wrapping read range is invalid, not an EOF
// probe.
func TestReadOffsetOverflow(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(fs.Root(), "f", 1, 1, 0644)
	fs.Write(f.ID, 0, 10000)
	if _, _, err := fs.Read(f.ID, math.MaxUint64-5, 100); !errors.Is(err, ErrInval) {
		t.Fatalf("wrapping read: %v, want ErrInval", err)
	}
	// A huge but non-wrapping count is fine and clamps to EOF.
	n, eof, err := fs.Read(f.ID, 4000, 1<<62)
	if err != nil || n != 6000 || !eof {
		t.Fatalf("big read: n=%d eof=%v err=%v", n, eof, err)
	}
}

// TestTruncateOverflow pins the size guard: a near-MaxUint64 size used
// to wrap the block rounding, refunding usage it never charged.
func TestTruncateOverflow(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(fs.Root(), "f", 9, 9, 0644)
	fs.Write(f.ID, 0, 100000)
	usage := fs.Usage(9)
	if _, err := fs.Truncate(f.ID, math.MaxUint64); !errors.Is(err, ErrTooBig) {
		t.Fatalf("huge truncate: %v, want ErrTooBig", err)
	}
	if f.Size != 100000 || fs.Usage(9) != usage {
		t.Fatalf("truncate corrupted state: size=%d usage=%d", f.Size, fs.Usage(9))
	}
}

// TestRenameIntoOwnSubtree pins the cycle guard: moving a directory
// into its own subtree must fail instead of orphaning the tree behind
// a parent-pointer cycle.
func TestRenameIntoOwnSubtree(t *testing.T) {
	fs := newFS()
	a, _ := fs.Mkdir(fs.Root(), "a", 0, 0, 0755)
	b, _ := fs.Mkdir(a.ID, "b", 0, 0, 0755)
	c, _ := fs.Mkdir(b.ID, "c", 0, 0, 0755)
	// Direct: /a → /a/x.
	if err := fs.Rename(fs.Root(), "a", a.ID, "x"); !errors.Is(err, ErrInval) {
		t.Fatalf("rename into self: %v, want ErrInval", err)
	}
	// Deep: /a → /a/b/c/x.
	if err := fs.Rename(fs.Root(), "a", c.ID, "x"); !errors.Is(err, ErrInval) {
		t.Fatalf("rename into own subtree: %v, want ErrInval", err)
	}
	// The tree is untouched and acyclic.
	if got := fs.Path(c.ID); got != "/a/b/c" {
		t.Fatalf("path = %q", got)
	}
	// Legal moves still work: /a/b/c → /c2, then /a → /c2/a.
	if err := fs.Rename(b.ID, "c", fs.Root(), "c2"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(fs.Root(), "a", c.ID, "a"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Path(b.ID); got != "/c2/a/b" {
		t.Fatalf("path after moves = %q", got)
	}
	checkInvariants(t, fs)
}

// TestRenameSelfNoop pins the self-rename fix: rename("a","a") must
// succeed without unlinking the file or touching any times (the old
// replace path decremented the inode's own link count and re-linked a
// freed inode).
func TestRenameSelfNoop(t *testing.T) {
	fs := newFS()
	f, _ := fs.Create(fs.Root(), "a", 3, 3, 0644)
	root, _ := fs.Get(fs.Root())
	fCtime, dMtime := f.Ctime, root.Mtime
	if err := fs.Rename(fs.Root(), "a", fs.Root(), "a"); err != nil {
		t.Fatalf("self rename: %v", err)
	}
	got, err := fs.Lookup(fs.Root(), "a")
	if err != nil || got.ID != f.ID {
		t.Fatalf("entry gone after self rename: %v %v", got, err)
	}
	if f.Nlink != 1 {
		t.Fatalf("nlink = %d after self rename", f.Nlink)
	}
	if f.Ctime != fCtime || root.Mtime != dMtime {
		t.Fatal("self rename touched times")
	}
	if err := fs.Rename(fs.Root(), "missing", fs.Root(), "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("self rename of missing name: %v", err)
	}
	checkInvariants(t, fs)
}

// TestUsageInvariant runs randomized single-threaded op sequences —
// including the symlink and rename-replace paths that used to corrupt
// accounting — and asserts the per-UID usage ledger exactly matches the
// sum of live Used() after every sequence.
func TestUsageInvariant(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fs := newFS()
		fs.QuotaPerUID = 256 * 1024
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c", "d", "e", "f"}
		for i := 0; i < 2000; i++ {
			name := names[rng.Intn(len(names))]
			uid := uint32(100 + rng.Intn(3))
			switch rng.Intn(7) {
			case 0:
				fs.Create(fs.Root(), name, uid, uid, 0644)
			case 1:
				fs.Symlink(fs.Root(), name, "/target/of/some/length", uid, uid)
			case 2:
				if ino, err := fs.Lookup(fs.Root(), name); err == nil && ino.Type == nfs.TypeReg {
					fs.Write(ino.ID, uint64(rng.Intn(4))*BlockSize, uint64(rng.Intn(3*BlockSize)))
				}
			case 3:
				if ino, err := fs.Lookup(fs.Root(), name); err == nil && ino.Type == nfs.TypeReg {
					fs.Truncate(ino.ID, uint64(rng.Intn(4*BlockSize)))
				}
			case 4:
				fs.Remove(fs.Root(), name)
			case 5:
				fs.Rename(fs.Root(), name, fs.Root(), names[rng.Intn(len(names))])
			case 6:
				if ino, err := fs.Lookup(fs.Root(), name); err == nil && ino.Type != nfs.TypeDir {
					fs.Link(ino.ID, fs.Root(), name+"-ln")
				}
			}
		}
		checkInvariants(t, fs)
	}
}

// TestChownMovesUsage: a SETATTR that changes a file's owner moves the
// file's usage to the new owner, within the new owner's quota, so
// removing the file later leaves no charge behind on either.
func TestChownMovesUsage(t *testing.T) {
	fs := newFS()
	fs.QuotaPerUID = BlockSize
	f, _ := fs.Create(fs.Root(), "f", 1, 1, 0644)
	if _, err := fs.Write(f.ID, 0, 5000); err != nil {
		t.Fatal(err)
	}
	two := uint32(2)
	if _, _, err := fs.Setattr(f.ID, nil, nil, &two, nil); err != nil {
		t.Fatal(err)
	}
	if fs.Usage(1) != 0 || fs.Usage(2) != BlockSize {
		t.Fatalf("after chown: usage %d and %d, want 0 and %d", fs.Usage(1), fs.Usage(2), BlockSize)
	}
	checkInvariants(t, fs)

	g, _ := fs.Create(fs.Root(), "g", 3, 3, 0644)
	if _, err := fs.Write(g.ID, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fs.Setattr(g.ID, nil, nil, &two, nil); !errors.Is(err, ErrQuota) {
		t.Fatalf("chown past the new owner's quota: %v, want ErrQuota", err)
	}
	if g.UID != 3 || fs.Usage(3) != BlockSize || fs.Usage(2) != BlockSize {
		t.Fatalf("refused chown: owner %d, usage %d and %d", g.UID, fs.Usage(3), fs.Usage(2))
	}
	if err := fs.Remove(fs.Root(), "f"); err != nil {
		t.Fatal(err)
	}
	if fs.Usage(1) != 0 || fs.Usage(2) != 0 {
		t.Fatalf("after remove: usage %d and %d, want 0", fs.Usage(1), fs.Usage(2))
	}
	checkInvariants(t, fs)
}
