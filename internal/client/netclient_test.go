package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
	"repro/internal/xdr"
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

// patternServer serves NFSv3 on loopback from no filesystem at all: a
// READ's data is a function of its offset, a LOOKUP's handle spells the
// name, and a READDIR's entries are named after the directory and the
// cookie. Each call is answered on a goroutine of its own, so replies
// come back in any order. (server.Filler is one fixed pattern, under
// which a result that aliased another reply's bytes would still look
// right.)
func patternServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				rc := wire.NewRecordConn(conn)
				var wmu sync.Mutex
				for {
					msg, err := rc.ReadRecord()
					if err != nil {
						return
					}
					go func() {
						dec, err := rpc.Decode(msg)
						if err != nil {
							return
						}
						h := dec.Call
						args, err := nfs.DecodeArgs3(h.Proc, h.Args)
						if err != nil {
							return
						}
						e := xdr.NewEncoder(256)
						rpc.EncodeReply(e, &rpc.ReplyHeader{XID: h.XID, ReplyStat: rpc.MsgAccepted, AcceptStat: rpc.Success})
						if err := nfs.EncodeRes3(e, h.Proc, patternResult(args)); err != nil {
							return
						}
						wmu.Lock()
						rc.WriteRecord(e.Bytes())
						wmu.Unlock()
					}()
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// patternResult is patternServer's answer to one call.
func patternResult(args any) any {
	switch a := args.(type) {
	case *nfs.ReadArgs3:
		return &nfs.ReadRes3{Status: nfs.OK, Count: a.Count, Data: pattern(a.Offset, int(a.Count))}
	case *nfs.LookupArgs3:
		return &nfs.LookupRes3{Status: nfs.OK, FH: patternFH(a.Name)}
	case *nfs.ReaddirArgs3:
		return &nfs.ReaddirRes3{Status: nfs.OK, Entries: patternEntries(a.Dir, a.Cookie)}
	}
	return &nfs.GetattrRes3{Status: nfs.ErrNotSupp}
}

// pattern is the data patternServer serves at offset.
func pattern(offset uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		x := offset + uint64(i)
		b[i] = byte(x ^ x>>8 ^ offset>>10)
	}
	return b
}

func patternFH(name string) nfs.FH { return nfs.FH("fh:" + name) }

func patternEntries(dir nfs.FH, cookie uint64) []nfs.DirEntry {
	e := make([]nfs.DirEntry, 3)
	for i := range e {
		c := cookie + uint64(i) + 1
		e[i] = nfs.DirEntry{FileID: c, Name: fmt.Sprintf("%x-entry-%d", []byte(dir), c), Cookie: c}
	}
	return e
}

// TestNetClientResultsOwnTheirBytes keeps 16 calls outstanding on one
// NetClient (4 goroutines × 4 calls each), mixing NetReadData,
// NetReadInto, Call(READ), LOOKUP and READDIR of varying sizes, against
// patternServer. The client reads every reply into one buffer that it
// reuses, so a result that aliased it would show a later reply's bytes:
// every result is checked only once every call has returned.
func TestNetClientResultsOwnTheirBytes(t *testing.T) {
	const goroutines, outstanding, rounds = 4, 4, 40
	c, err := DialNFS(patternServer(t), nfs.V3, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type result struct {
		what string
		got  any
		want any
		dst  []byte // NetReadInto's buffer, which its data must be
	}
	results := make([][]result, goroutines*outstanding)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dir := nfs.FH(fmt.Sprintf("dir-%d", w))
			for k := 0; k < rounds; k++ {
				off := uint64(w*rounds+k) * 1000
				count := uint32(100 + (w*131+k*977)%9000)
				var r result
				switch k % 5 {
				case 0:
					n, data, status, err := c.NetReadData(dir, off, count)
					r = result{what: "NetReadData", got: []any{n, status, err, data}, want: []any{count, uint32(nfs.OK), nil, pattern(off, int(count))}}
				case 1:
					dst := make([]byte, count+uint32(k))
					n, data, status, err := c.NetReadInto(dir, off, count, dst)
					r = result{what: "NetReadInto", got: []any{n, status, err, data}, want: []any{count, uint32(nfs.OK), nil, pattern(off, int(count))}, dst: dst}
				case 2:
					res, err := c.Call(nfs.V3Read, &nfs.ReadArgs3{FH: dir, Offset: off, Count: count})
					r = result{what: "Call(READ)", got: []any{res, err}, want: []any{&nfs.ReadRes3{Status: nfs.OK, Count: count, Data: pattern(off, int(count))}, nil}}
				case 3:
					name := fmt.Sprintf("name-%d-%d", w, k)
					fh, status, err := c.NetLookup(dir, name)
					r = result{what: "NetLookup", got: []any{fh, status, err}, want: []any{patternFH(name), uint32(nfs.OK), nil}}
				default:
					res, err := c.Call(nfs.V3Readdir, &nfs.ReaddirArgs3{Dir: dir, Cookie: off, MaxCount: 4096})
					r = result{what: "Call(READDIR)", got: []any{res, err}, want: []any{&nfs.ReaddirRes3{Status: nfs.OK, Entries: patternEntries(dir, off)}, nil}}
				}
				results[w] = append(results[w], r)
			}
		}(w)
	}
	wg.Wait()
	for w, rs := range results {
		for k, r := range rs {
			if !reflect.DeepEqual(r.got, r.want) {
				t.Errorf("goroutine %d call %d, %s: result changed or wrong", w, k, r.what)
				continue
			}
			if r.dst != nil {
				if data := r.got.([]any)[3].([]byte); &data[0] != &r.dst[0] {
					t.Errorf("goroutine %d call %d, %s: data not in dst", w, k, r.what)
				}
			}
		}
	}
}
