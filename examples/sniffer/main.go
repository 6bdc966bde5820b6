// Sniffer example: the full passive-tracing path on real bytes.
//
// A simulated NFSv3-over-TCP client talks to a server while a wire tap
// frames every message into Ethernet/IP/TCP packets. The packets go
// into an in-memory pcap "file", and the sniffer decodes them back into
// trace records — exactly what the paper's tracing host did on the
// CAMPUS mirror port.
//
//	go run ./examples/sniffer
package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// memCapture collects tapped packets into a pcap stream.
type memCapture struct {
	w *pcap.Writer
}

func (m *memCapture) Packet(t float64, frame []byte) {
	if err := m.w.WritePacket(t, frame); err != nil {
		panic(err)
	}
}

func main() {
	// Build a tiny NFS world: server, one client, jumbo-frame TCP.
	fs := vfs.New()
	clock := 0.0
	fs.Clock = func() float64 { clock += 0.001; return clock }
	srv := server.New(fs)

	var capture bytes.Buffer
	pw, err := pcap.NewWriter(&capture, true)
	if err != nil {
		panic(err)
	}
	records := &client.SliceSink{}
	cl := client.New(client.Config{
		IP: 0x0a000005, UID: 501, GID: 100,
		Version: nfs.V3, Proto: core.ProtoTCP, Seed: 7,
	}, srv, 0x0a000001, records)
	cl.EnableWireTap(client.NewWireTap(&memCapture{w: pw}, 0x0a000005, 0x0a000001, wire.JumboMTU))

	// A little mail-session activity.
	root := srv.FS.RootFH()
	t := 1.0
	inbox, t := cl.Create(t, root, "inbox", false)
	t = cl.WriteRange(t, inbox, 0, 128*1024)
	lock, t := cl.Create(t, root, "inbox.lock", true)
	_ = lock
	_, t = cl.ReadFile(t+1, inbox, 128*1024)
	_, t = cl.Remove(t, root, "inbox.lock")
	pw.Flush()

	fmt.Printf("generated %d packets (%d bytes of capture) for %d ground-truth records\n",
		pw.Count(), capture.Len(), len(records.Records))

	// Now sniff the capture, anonymizing on the fly.
	sniffed, stats, err := repro.Sniff(&capture, repro.Anonymize(nil, 42))
	if err != nil {
		panic(err)
	}
	fmt.Printf("sniffer: %d calls, %d replies, %d orphan replies, %d unmatched calls, loss estimate %.2f%%\n",
		stats.Calls, stats.Replies, stats.OrphanReplies, stats.UnmatchedCalls, 100*stats.LossEstimate())

	fmt.Println("\nfirst records as the tracer writes them:")
	for i, rec := range sniffed {
		if i == 6 {
			fmt.Printf("  ... %d more\n", len(sniffed)-6)
			break
		}
		fmt.Println(" ", rec.Marshal())
	}
	if len(sniffed) != len(records.Records) {
		panic("sniffer lost records on a lossless link")
	}
	fmt.Println("\nsniffed record count matches ground truth exactly.")
}
