package capture

import (
	"bytes"
	"io"
	"runtime"
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
// over UDP at the standard MTU, packets in capture order.
func eecsPcap(tb testing.TB, clients int, days float64) []byte {
	tb.Helper()
	pkts := &packetBuf{}
	gen := workload.NewEECS(workload.DefaultEECSConfig(clients, days, 20011021), &client.SliceSink{})
	gen.Capture(pkts, wire.StandardMTU)
	gen.Run()
	return pcapBytes(tb, pkts)
}

// TestSnifferMatchesGenerator sniffs a generator's own capture, written
// to a pcap file, and holds what comes out against the records the
// generator emitted: the same records in the same order, every field
// equal and times within the pcap's nanosecond rounding. CAMPUS covers
// TCP at the jumbo MTU, where one message's late framing would misplace
// sequence numbers; EECS covers UDP with IP fragmentation.
func TestSnifferMatchesGenerator(t *testing.T) {
	type generator interface {
		Capture(client.PacketSink, int)
		Run()
	}
	for _, tc := range []struct {
		name string
		gen  func(client.Sink) generator
		mtu  int
	}{
		{"campus", func(s client.Sink) generator {
			return workload.NewCampus(workload.DefaultCampusConfig(4, 0.3, 5), s)
		}, wire.JumboMTU},
		{"eecs", func(s client.Sink) generator {
			return workload.NewEECS(workload.DefaultEECSConfig(2, 0.3, 5), s)
		}, wire.StandardMTU},
	} {
		t.Run(tc.name, func(t *testing.T) {
			records, pkts := &client.SliceSink{}, &packetBuf{}
			gen := tc.gen(records)
			gen.Capture(pkts, tc.mtu)
			gen.Run()
			if len(records.Records) < 1000 {
				t.Fatalf("only %d records generated", len(records.Records))
			}
			r, err := pcap.NewReader(bytes.NewReader(pcapBytes(t, pkts)))
			if err != nil {
				t.Fatal(err)
			}
			var got []*core.Record
			s := NewSniffer(func(rec *core.Record) { got = append(got, rec) })
			if err := s.ReadPcap(r); err != nil {
				t.Fatal(err)
			}
			assertRecordsMatchWithin(t, records.Records, got, 1e-6)
		})
	}
}

// traceCapture runs nfstrace's loop — ReadPcap into the text writer,
// each record handed back to the sniffer once written — over one
// capture and reports the packets read.
func traceCapture(tb testing.TB, capture []byte, out io.Writer) int64 {
	tb.Helper()
	r, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		tb.Fatal(err)
	}
	tw := core.NewWriter(out)
	var werr error
	var s *Sniffer
	s = NewSniffer(func(rec *core.Record) {
		if werr == nil {
			werr = tw.Write(rec)
		}
		s.Recycle(rec)
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
// packet, from pcap bytes to text lines. On a UDP capture at the
// standard MTU that is the names in the records: packets are read
// where they lie in the reader's buffer, records come back for reuse,
// and no header, credential, NFS body or reassembled datagram is
// allocated per message. A TCP capture at the jumbo MTU also pays for
// the stream: its bytes are gathered into buffers of the scanner's, a
// new one every few segments, which the records are sliced from.
func TestReadPcapAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("generates an EECS and a CAMPUS capture")
	}
	campus := func() []byte {
		pkts, _ := campusCapture(t)
		return pcapBytes(t, pkts)
	}
	for _, c := range []struct {
		name      string
		capture   []byte
		allocs    float64
		bytes     float64
		boundText string
	}{
		// Measured 0.55 allocations and 20 B per packet: the names.
		{"eecs udp", eecsPcap(t, 2, 0.5), 0.8, 40, "≤ 0.8 and ≤ 40 B"},
		// Measured 0.26 allocations and 5.3 KiB per packet; the bytes are
		// the stream buffers rpc.RecordScanner.Append makes.
		{"campus tcp", campus(), 0.4, 7 << 10, "≤ 0.4 and ≤ 7 KiB"},
	} {
		traceCapture(t, c.capture, io.Discard) // handles and procedures interned
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		n := traceCapture(t, c.capture, io.Discard)
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
		bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%s: %d packets: %.2f allocations, %.0f B per packet", c.name, n, allocs, bytesPer)
		if allocs > c.allocs || bytesPer > c.bytes {
			t.Errorf("%s: %.2f allocations and %.0f B per packet, want %s", c.name, allocs, bytesPer, c.boundText)
		}
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
