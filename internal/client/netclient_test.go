package client

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/vfs"
)

// dialServer serves a fresh filesystem holding one 64 KiB file and
// returns a client of the given version and the file's handle.
func dialServer(t *testing.T, version uint32) (*NetClient, nfs.FH) {
	t.Helper()
	fs := vfs.New()
	ino, err := fs.Create(fs.Root(), "file", 100, 100, 0644)
	if err == nil {
		_, err = fs.Truncate(ino.ID, 64<<10)
	}
	if err != nil {
		t.Fatal(err)
	}
	ns, err := server.Listen(server.New(fs), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	c, err := DialNFS(ns.Addr(), version, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, nfs.MakeFH(ino.ID)
}

// TestNetReadWriteCounts: the count-returning helpers report what the
// reply says on both protocol versions, and the plain helpers wrap them.
func TestNetReadWriteCounts(t *testing.T) {
	for _, version := range []uint32{nfs.V3, nfs.V2} {
		c, fh := dialServer(t, version)
		n, data, status, err := c.NetReadData(fh, 60<<10, 8<<10) // 4 KiB before EOF
		if err != nil || status != nfs.OK || n != 4<<10 || !bytes.Equal(data, server.Filler(4<<10)) {
			t.Errorf("v%d read: n %d, %d data bytes, status %d, err %v", version, n, len(data), status, err)
		}
		if status, err := c.NetRead(fh, 0, 512); err != nil || status != nfs.OK {
			t.Errorf("v%d NetRead: status %d err %v", version, status, err)
		}
		if n, status, err := c.NetWriteCount(fh, 0, 32<<10); err != nil || status != nfs.OK || n != 32<<10 {
			t.Errorf("v%d write: n %d, status %d, err %v", version, n, status, err)
		}
		if status, err := c.NetWrite(fh, 0, 512); err != nil || status != nfs.OK {
			t.Errorf("v%d NetWrite: status %d err %v", version, status, err)
		}
		stale := nfs.MakeFH(1 << 40)
		if n, _, status, err := c.NetReadData(stale, 0, 512); err != nil || status != nfs.ErrStale || n != 0 {
			t.Errorf("v%d stale read: n %d, status %d, err %v", version, n, status, err)
		}
		if n, status, err := c.NetWriteCount(stale, 0, 512); err != nil || status != nfs.ErrStale || n != 0 {
			t.Errorf("v%d stale write: n %d, status %d, err %v", version, n, status, err)
		}
	}
}

// TestNetCallErrors: a call whose args do not encode fails alone and
// leaves the connection usable; a call after Close fails.
func TestNetCallErrors(t *testing.T) {
	c, fh := dialServer(t, nfs.V3)
	if _, err := c.Call(nfs.V3NumProcs, nil); !errors.Is(err, nfs.ErrBadProc) {
		t.Fatalf("unknown procedure: err %v, want nfs.ErrBadProc", err)
	}
	if status, err := c.NetGetattr(fh); err != nil || status != nfs.OK {
		t.Fatalf("call after an encode failure: status %d err %v", status, err)
	}
	c.mu.Lock()
	inflight := len(c.inflight)
	c.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d calls left in flight", inflight)
	}
	c.Close()
	if _, err := c.NetGetattr(fh); err == nil {
		t.Fatal("call on a closed client succeeded")
	}
}
