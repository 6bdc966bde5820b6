package capture

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/wire"
)

// BenchmarkSnifferUDP measures end-to-end packet decoding: Ethernet →
// IP → UDP → RPC → NFS → record, the tracer's hot loop.
func BenchmarkSnifferUDP(b *testing.B) {
	c, _, pkts, srv := rig(nfs.V3, core.ProtoUDP, wire.JumboMTU)
	driveWorkload(c, srv)
	var n int64
	for _, p := range pkts.packets {
		n += int64(len(p.data))
	}
	b.SetBytes(n / int64(len(pkts.packets)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSniffer(nil)
		p := pkts.packets[i%len(pkts.packets)]
		s.HandlePacket(p.t, p.data)
	}
}

// BenchmarkSnifferTCPStream measures the TCP path including stream
// reassembly and record-marking extraction.
func BenchmarkSnifferTCPStream(b *testing.B) {
	c, records, pkts, srv := rig(nfs.V3, core.ProtoTCP, wire.StandardMTU)
	driveWorkload(c, srv)
	want := len(records.Records)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := 0
		s := NewSniffer(func(*core.Record) { got++ })
		for _, p := range pkts.packets {
			s.HandlePacket(p.t, p.data)
		}
		if got != want {
			b.Fatalf("decoded %d, want %d", got, want)
		}
	}
}

// BenchmarkReadPcap measures nfstrace's loop, pcap bytes to text lines,
// over an EECS capture (UDP, standard MTU), reporting the bytes and
// allocations per packet besides the time.
func BenchmarkReadPcap(b *testing.B) {
	capture := eecsPcap(b, 2, 0.5)
	b.SetBytes(int64(len(capture)))
	traceCapture(b, capture, io.Discard)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var pkts int64
	for i := 0; i < b.N; i++ {
		pkts += traceCapture(b, capture, io.Discard)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(pkts), "B/pkt")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(pkts), "allocs/pkt")
}

var _ = client.SliceSink{} // keep the import for the rig helper
