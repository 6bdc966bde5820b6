package main

import (
	"bytes"
	"encoding/json"
	"net"
	"reflect"
	"testing"

	"repro/internal/nfs"
	"repro/internal/rpc"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
	"repro/internal/xdr"
)

// benchRun invokes run() with a tiny deterministic workload and parses
// the JSON report.
func benchRun(t *testing.T, extra ...string) *Report {
	t.Helper()
	args := append([]string{
		"-seed", "1", "-n", "200", "-T", "2", "-c", "2",
		"-files", "8", "-filesize", "4096", "-xfer", "512",
		"-interval", "0",
	}, extra...)
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, stdout.String())
	}
	return &rep
}

// TestBenchDeterministicOpCounts runs the harness twice with the same
// seed and asserts the op mix is bit-reproducible.
func TestBenchDeterministicOpCounts(t *testing.T) {
	a := benchRun(t)
	b := benchRun(t)
	if a.TotalOps != 200 || b.TotalOps != 200 {
		t.Fatalf("total_ops %d/%d, want 200", a.TotalOps, b.TotalOps)
	}
	if !reflect.DeepEqual(a.OpCounts, b.OpCounts) {
		t.Fatalf("op counts differ across same-seed runs:\n%v\n%v", a.OpCounts, b.OpCounts)
	}
	for _, class := range []string{"read", "write", "meta", "all"} {
		if a.Classes[class].Ops != b.Classes[class].Ops {
			t.Errorf("class %s: ops %d vs %d across same-seed runs",
				class, a.Classes[class].Ops, b.Classes[class].Ops)
		}
	}
	// A different seed must shuffle the mix.
	c := benchRun(t, "-seed", "2")
	if reflect.DeepEqual(a.OpCounts, c.OpCounts) {
		t.Error("op counts identical across different seeds")
	}
}

// TestBenchFourConnections drives four connections at once, each with
// its reader loop and its writers running concurrently. wire.RecordConn
// once shared a header buffer between the two directions, which under
// load corrupted frames (errors, hangs) and fails this test under -race.
func TestBenchFourConnections(t *testing.T) {
	rep := benchRun(t, "-n", "3000", "-T", "1", "-c", "4", "-filesize", "65536")
	if rep.Errors != 0 || rep.TotalOps != 3000 {
		t.Fatalf("total_ops %d errors %d, want 3000 and 0", rep.TotalOps, rep.Errors)
	}
}

// TestBenchReportShape sanity-checks the report invariants: counts add
// up, no errors against the in-process server, percentiles are ordered,
// and the CDF ends at 1.
func TestBenchReportShape(t *testing.T) {
	rep := benchRun(t)
	if rep.Errors != 0 {
		t.Fatalf("%d errors against in-process server", rep.Errors)
	}
	var sum int64
	for _, v := range rep.OpCounts {
		sum += v
	}
	if sum != rep.TotalOps {
		t.Fatalf("op_counts sum %d, want total_ops %d", sum, rep.TotalOps)
	}
	all := rep.Classes["all"]
	if all.Ops != rep.TotalOps {
		t.Fatalf("all.ops %d, want %d", all.Ops, rep.TotalOps)
	}
	if rep.Classes["read"].Ops+rep.Classes["write"].Ops+rep.Classes["meta"].Ops != all.Ops {
		t.Fatal("per-class ops do not sum to the total")
	}
	if !(all.P50Us <= all.P90Us && all.P90Us <= all.P99Us && all.P99Us <= all.P999Us) {
		t.Fatalf("percentiles out of order: %v %v %v %v", all.P50Us, all.P90Us, all.P99Us, all.P999Us)
	}
	if all.MinUs <= 0 || all.MaxUs < all.P999Us {
		t.Fatalf("min/max inconsistent: min %v max %v p999 %v", all.MinUs, all.MaxUs, all.P999Us)
	}
	if len(all.CDF) == 0 || all.CDF[len(all.CDF)-1].Fraction != 1 {
		t.Fatal("CDF missing or does not end at 1")
	}
	if rep.ThroughputOpsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Fatal("throughput/elapsed not positive")
	}
	if rep.Config.Mode != "closed" || rep.Config.Seed != 1 {
		t.Fatalf("config echo wrong: %+v", rep.Config)
	}
}

// TestBenchOpenLoop exercises the Poisson arrival path end to end with
// a rate high enough to finish quickly.
func TestBenchOpenLoop(t *testing.T) {
	a := benchRun(t, "-rate", "50000", "-n", "150")
	b := benchRun(t, "-rate", "50000", "-n", "150")
	if a.Config.Mode != "open" {
		t.Fatalf("mode %q, want open", a.Config.Mode)
	}
	if a.TotalOps != 150 || a.Errors != 0 {
		t.Fatalf("total_ops %d errors %d", a.TotalOps, a.Errors)
	}
	if !reflect.DeepEqual(a.OpCounts, b.OpCounts) {
		t.Fatalf("open-loop op counts differ across same-seed runs:\n%v\n%v", a.OpCounts, b.OpCounts)
	}
}

// TestBenchBadFlags covers flag validation.
func TestBenchBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-T", "0"},
		{"-read", "80", "-write", "30"},
		{"-version", "4"},
		{"-xfer", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, &out); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}

// tamperingServer serves NFSv3 from a fresh in-process server on
// loopback and passes every result through tamper before encoding it.
// With stray set it also sends, ahead of each WRITE reply, a copy under
// an xid no call carries. It stands in for a server with a buffer-reuse
// bug: replies that are well-formed but wrong.
func tamperingServer(t *testing.T, tamper func(proc uint32, res any), stray bool) string {
	t.Helper()
	srv := server.New(vfs.New())
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
				for {
					msg, err := rc.ReadRecord()
					if err != nil {
						return
					}
					dec, err := rpc.Decode(msg)
					if err != nil {
						return
					}
					h := dec.Call
					args, err := nfs.DecodeArgs3(h.Proc, h.Args)
					if err != nil {
						return
					}
					res := srv.HandleV3(h.Proc, args)
					if tamper != nil {
						tamper(h.Proc, res)
					}
					body := xdr.NewEncoder(256)
					if err := nfs.EncodeRes3(body, h.Proc, res); err != nil {
						return
					}
					reply := func(xid uint32) error {
						e := xdr.NewEncoder(256 + body.Len())
						rpc.EncodeReply(e, &rpc.ReplyHeader{XID: xid, ReplyStat: rpc.MsgAccepted,
							AcceptStat: rpc.Success, Results: body.Bytes()})
						return rc.WriteRecord(e.Bytes())
					}
					if stray && h.Proc == nfs.V3Write && reply(h.XID^1<<31) != nil {
						return
					}
					if reply(h.XID) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestBenchChecksReplies points the harness, with the in-process data
// check on, at servers that each get one kind of reply wrong, and
// expects every such reply in the report's errors.
func TestBenchChecksReplies(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(proc uint32, res any)
		stray  bool
		// wrong returns how many errors the report must show.
		wrong func(rep *Report) int64
	}{
		{name: "honest", wrong: func(*Report) int64 { return 0 }},
		{name: "read payload", tamper: func(proc uint32, res any) {
			if r, ok := res.(*nfs.ReadRes3); ok && len(r.Data) > 0 {
				r.Data = bytes.Clone(r.Data) // Filler is shared storage
				r.Data[len(r.Data)/2] ^= 0x20
			}
		}, wrong: func(rep *Report) int64 { return rep.OpCounts["READ"] }},
		{name: "read count", tamper: func(proc uint32, res any) {
			if r, ok := res.(*nfs.ReadRes3); ok {
				r.Count++
			}
		}, wrong: func(rep *Report) int64 { return rep.OpCounts["READ"] }},
		{name: "write count", tamper: func(proc uint32, res any) {
			if r, ok := res.(*nfs.WriteRes3); ok {
				r.Count--
			}
		}, wrong: func(rep *Report) int64 { return rep.OpCounts["WRITE"] }},
		{name: "lookup handle", tamper: func(proc uint32, res any) {
			if r, ok := res.(*nfs.LookupRes3); ok && r.Status == nfs.OK {
				r.FH = nfs.MakeFH(1 << 40)
			}
		}, wrong: func(rep *Report) int64 { return rep.OpCounts["LOOKUP"] }},
		{name: "stray reply", stray: true, wrong: func(rep *Report) int64 { return rep.OpCounts["WRITE"] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags([]string{
				"-addr", tamperingServer(t, tc.tamper, tc.stray),
				"-seed", "3", "-n", "300", "-T", "2", "-c", "2",
				"-files", "8", "-filesize", "8192", "-xfer", "1024", "-interval", "0",
			}, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.checkData = true
			var stdout, stderr bytes.Buffer
			if err := bench(cfg, &stdout, &stderr); err != nil {
				t.Fatalf("bench: %v\n%s", err, stderr.String())
			}
			var rep Report
			if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			want := tc.wrong(&rep)
			if tc.name != "honest" && want == 0 {
				t.Fatalf("op stream has no operation to get wrong: %v", rep.OpCounts)
			}
			if rep.Errors != want {
				t.Fatalf("report errors %d (unmatched %d), want %d\n%s", rep.Errors, rep.Unmatched, want, stderr.String())
			}
			if tc.stray && rep.Unmatched != want {
				t.Fatalf("unmatched %d, want %d", rep.Unmatched, want)
			}
		})
	}
}
