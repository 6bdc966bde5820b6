package server_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/server"
	"repro/internal/vfs"
)

// loopbackOp is one round trip of the serving-path measurements.
type loopbackOp struct {
	name string
	run  func(c *client.NetClient, fh nfs.FH) (uint32, error)
}

var loopbackOps = []loopbackOp{
	{"write32k", func(c *client.NetClient, fh nfs.FH) (uint32, error) { return c.NetWrite(fh, 0, 32<<10) }},
	{"read8k", func(c *client.NetClient, fh nfs.FH) (uint32, error) { return c.NetRead(fh, 8<<10, 8<<10) }},
	{"read8k-into", readInto(8 << 10)},
}

// readInto reads count bytes with NetReadInto into one buffer that it
// reuses, as nfsbench's closed-loop workers do.
func readInto(count uint32) func(c *client.NetClient, fh nfs.FH) (uint32, error) {
	dst := make([]byte, count)
	return func(c *client.NetClient, fh nfs.FH) (uint32, error) {
		n, data, status, err := c.NetReadInto(fh, 8<<10, count, dst)
		if err == nil && status == nfs.OK && (n != count || &data[0] != &dst[0]) {
			err = fmt.Errorf("read %d of %d bytes, into dst %v", n, count, &data[0] == &dst[0])
		}
		return status, err
	}
}

// dialLoopback serves one 64 KiB file and returns a v3 client for it.
func dialLoopback(tb testing.TB) (*client.NetClient, nfs.FH) {
	tb.Helper()
	fs := vfs.New()
	ino, err := fs.Create(fs.Root(), "file", 100, 100, 0644)
	if err == nil {
		_, err = fs.Truncate(ino.ID, 64<<10)
	}
	if err != nil {
		tb.Fatal(err)
	}
	ns, err := server.Listen(server.New(fs), "")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ns.Close() })
	c, err := client.DialNFS(ns.Addr(), nfs.V3, 100, 100)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, nfs.MakeFH(ino.ID)
}

// TestNetServingAllocations pins what one loopback round trip allocates,
// client and server together (runtime.MemStats over the whole process).
// No payload buffer is allocated on either end: a WRITE's payload is
// encoded into the client's one call encoder and read into the server's
// per-connection call buffer, a READ's reply is built in the server's
// per-connection reply encoder and read into the client's one reply
// buffer, and both ends decode RPC headers and the server its args into
// decoders they reuse. What is left is the typed args and results,
// their attributes and wcc blocks: the server's results go to the
// encoder, the client's to the caller, who keeps them.
func TestNetServingAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	// Measured 312 B / 9.0, 282 B / 5.0 and 280 B / 5.0; the race
	// detector's sync.Pool drops some pooled calls (~0.7 allocations).
	type limit struct {
		bytes  uint64
		allocs float64
	}
	limits := map[string]limit{"write32k": {640, 12}, "read8k": {512, 8}, "read8k-into": {512, 8}}
	for _, op := range loopbackOps {
		c, fh := dialLoopback(t)
		roundTrips := func(n int) {
			for i := 0; i < n; i++ {
				if status, err := op.run(c, fh); err != nil || status != nfs.OK {
					t.Fatalf("%s: status %d err %v", op.name, status, err)
				}
			}
		}
		roundTrips(50) // grow the reused buffers first
		const n = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		roundTrips(n)
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / n
		allocs := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s: %d bytes, %.1f allocations per round trip", op.name, perOp, allocs)
		if lim := limits[op.name]; perOp > lim.bytes || allocs > lim.allocs {
			t.Errorf("%s: %d bytes and %.1f allocations per round trip, limits %d and %.0f", op.name, perOp, allocs, lim.bytes, lim.allocs)
		}
	}
}

// BenchmarkNetLoopback times one closed-loop round trip over loopback
// TCP; -benchmem reports what it allocates on both ends.
func BenchmarkNetLoopback(b *testing.B) {
	for _, op := range loopbackOps {
		b.Run(op.name, func(b *testing.B) {
			c, fh := dialLoopback(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if status, err := op.run(c, fh); err != nil || status != nfs.OK {
					b.Fatalf("status %d err %v", status, err)
				}
			}
		})
	}
}

// tapKey is what a trace record says about names and handles; times,
// xids, endpoints and attributes differ between the two runs compared.
type tapKey struct {
	kind          byte
	proc          core.ProcID
	fh, newFH     core.FH
	name          string
	offset, count uint64
	status        uint32
}

func tapKeys(recs []*core.Record) map[tapKey]int {
	keys := make(map[tapKey]int)
	for _, r := range recs {
		keys[tapKey{r.Kind, r.Proc, r.FH, r.NewFH, r.Name, r.Offset, uint64(r.Count) + uint64(r.RCount), r.Status}]++
	}
	return keys
}

// TestTracedRecordsOwnTheirBytes pipelines CREATE, LOOKUP and 32 KiB
// WRITE calls from 4 connections with 4 calls outstanding each through
// a traced NetServer, and compares the records the tap emits with the
// records the in-process Client emits for the same operations. The
// server reads every call into a reused per-connection buffer, so a
// record that aliased it (a name, a handle) would show a later call's
// bytes here.
func TestTracedRecordsOwnTheirBytes(t *testing.T) {
	const conns, outstanding, rounds = 4, 4, 12
	names := make([]string, 10)
	for i := range names {
		names[i] = fmt.Sprintf("f%d-%s", i, strings.Repeat("abcdefg"[i%7:], i+1))
	}
	type op struct {
		proc uint32
		file int
		off  uint64
	}
	var ops [][]op // one stream per calling goroutine
	for g := 0; g < conns*outstanding; g++ {
		var stream []op
		for k := 0; k < rounds; k++ {
			procs := [3]uint32{nfs.V3Create, nfs.V3Lookup, nfs.V3Write}
			stream = append(stream, op{procs[(g+k)%3], (g*7 + k) % len(names), uint64(k%4) * 32 << 10})
		}
		ops = append(ops, stream)
	}

	// Over the socket: set-up creates the files in order, so both runs
	// number the inodes alike; then every goroutine runs its stream.
	var mu sync.Mutex
	var tapped []*core.Record
	ns, err := server.ListenTraced(server.New(vfs.New()), "", func(r *core.Record) {
		mu.Lock()
		tapped = append(tapped, r)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	root := nfs.MakeFH(2)
	clients := make([]*client.NetClient, conns)
	for i := range clients {
		if clients[i], err = client.DialNFS(ns.Addr(), nfs.V3, 0, 0); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	fhs := make([]nfs.FH, len(names))
	for i, name := range names {
		fh, status, err := clients[0].NetCreate(root, name)
		if err != nil || status != nfs.OK {
			t.Fatalf("create %s: status %d err %v", name, status, err)
		}
		fhs[i] = fh
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(ops))
	for g, stream := range ops {
		wg.Add(1)
		go func(c *client.NetClient, stream []op) {
			defer wg.Done()
			for _, o := range stream {
				var status uint32
				var err error
				switch o.proc {
				case nfs.V3Create:
					_, status, err = c.NetCreate(root, names[o.file])
				case nfs.V3Lookup:
					_, status, err = c.NetLookup(root, names[o.file])
				default:
					status, err = c.NetWrite(fhs[o.file], o.off, 32<<10)
				}
				if err != nil || status != nfs.OK {
					errs <- fmt.Errorf("proc %d on %s: status %d err %v", o.proc, names[o.file], status, err)
					return
				}
			}
		}(clients[g%conns], stream)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// In process: the same set-up and operations, one after another.
	var sink client.SliceSink
	inproc := client.New(client.Config{Version: nfs.V3, Seed: 1}, server.New(vfs.New()), 1, &sink)
	now := 0.0
	for i, name := range names {
		var fh nfs.FH
		if fh, now = inproc.Create(now, root, name, false); !fh.Equal(fhs[i]) {
			t.Fatalf("in-process create %s: handle %s, socket run %s", name, fh, fhs[i])
		}
	}
	for _, stream := range ops {
		for _, o := range stream {
			switch o.proc {
			case nfs.V3Create:
				_, now = inproc.Create(now, root, names[o.file], false)
			case nfs.V3Lookup:
				_, _, now = inproc.Lookup(now, root, names[o.file])
			default:
				now = inproc.Write(now, fhs[o.file], o.off, 32<<10, nfs.FileSync)
			}
		}
	}

	got, want := tapKeys(tapped), tapKeys(sink.Records)
	if len(tapped) != len(sink.Records) {
		t.Errorf("tap emitted %d records, in-process client %d", len(tapped), len(sink.Records))
	}
	var diffs []string
	for k, n := range got {
		if want[k] != n {
			diffs = append(diffs, fmt.Sprintf("%+v: tap %d, in-process %d", k, n, want[k]))
		}
	}
	for k, n := range want {
		if _, ok := got[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%+v: tap 0, in-process %d", k, n))
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs[:min(len(diffs), 10)] {
		t.Error(d)
	}
}
