package capture

import (
	"bytes"
	"io"
	"runtime"
	"sort"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/wire"
	"repro/internal/workload"
)

// pcapBytes writes the captured packets as a nanosecond pcap file.
func pcapBytes(tb testing.TB, pkts *packetBuf) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, true)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range pkts.packets {
		if err := w.WritePacket(p.t, p.data); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// eecsPcap generates an EECS capture the way nfsgen -pcap does: NFSv3
// over UDP at the standard MTU, packets in time order.
func eecsPcap(tb testing.TB, clients int, days float64) []byte {
	tb.Helper()
	pkts := &packetBuf{}
	gen := workload.NewEECS(workload.DefaultEECSConfig(clients, days, 20011021), &client.SliceSink{})
	for _, cl := range gen.Clients() {
		cl.EnableWireTap(client.NewWireTap(pkts, cl.IP, workload.ServerIPEECS, wire.StandardMTU))
	}
	gen.Run()
	sort.SliceStable(pkts.packets, func(i, j int) bool { return pkts.packets[i].t < pkts.packets[j].t })
	return pcapBytes(tb, pkts)
}

// traceCapture runs nfstrace's loop — ReadPcap into the text writer —
// over one capture and reports the packets read.
func traceCapture(tb testing.TB, capture []byte, out io.Writer) int64 {
	tb.Helper()
	r, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		tb.Fatal(err)
	}
	tw := core.NewWriter(out)
	var werr error
	s := NewSniffer(func(rec *core.Record) {
		if werr == nil {
			werr = tw.Write(rec)
		}
	})
	if err := s.ReadPcap(r); err != nil {
		tb.Fatal(err)
	}
	if werr == nil {
		werr = tw.Flush()
	}
	if werr != nil {
		tb.Fatal(werr)
	}
	return s.Stats.Packets
}

// TestReadPcapAllocations bounds what the capture path allocates per
// packet, from pcap bytes to text lines, on a UDP capture at the
// standard MTU: the records the sniffer hands out, the messages and
// one buffer per reassembled datagram, but no buffer per packet.
func TestReadPcapAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an EECS capture")
	}
	capture := eecsPcap(t, 2, 0.5)
	traceCapture(t, capture, io.Discard) // handles and procedures interned
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := traceCapture(t, capture, io.Discard)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d packets: %.2f allocations, %.0f B per packet", n, allocs, bytesPer)
	if allocs > 8 || bytesPer > 1024 {
		t.Errorf("%.2f allocations and %.0f B per packet, want ≤ 8 and ≤ 1 KiB", allocs, bytesPer)
	}
}

// TestReadPcapReportsBadPackets: a body cut short ends ReadPcap with the
// reader's error, after the packets before it were handled.
func TestReadPcapReportsBadPackets(t *testing.T) {
	c, _, pkts, srv := rig(nfs.V3, core.ProtoUDP, wire.JumboMTU)
	c.Access(1, srv.FS.RootFH())
	capture := pcapBytes(t, pkts)
	r, err := pcap.NewReader(bytes.NewReader(capture[:len(capture)-3]))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSniffer(nil)
	if err := s.ReadPcap(r); err == nil || s.Stats.Packets != 1 || s.Stats.Calls != 1 {
		t.Fatalf("err %v, stats %+v", err, s.Stats)
	}
}
