package capture

import (
	"bytes"
	"testing"

	"repro/internal/anon"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/server"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// packetBuf collects framed packets in memory.
type packetBuf struct {
	packets []struct {
		t    float64
		data []byte
	}
}

func (p *packetBuf) Packet(t float64, frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	p.packets = append(p.packets, struct {
		t    float64
		data []byte
	}{t, cp})
}

// rig builds a client+server whose traffic is captured both as records
// (ground truth) and packets (sniffer input).
func rig(version uint32, proto byte, mtu int) (*client.Client, *client.SliceSink, *packetBuf, *server.Server) {
	fs := vfs.New()
	now := 0.0
	fs.Clock = func() float64 { now += 0.0001; return now }
	srv := server.New(fs)
	records := &client.SliceSink{}
	c := client.New(client.Config{
		IP: 0x0a000005, UID: 501, GID: 100, Version: version, Proto: proto, Seed: 5,
	}, srv, 0x0a000001, records)
	pkts := &packetBuf{}
	c.EnableWireTap(client.NewWireTap(pkts, 0x0a000005, 0x0a000001, mtu))
	return c, records, pkts, srv
}

// driveWorkload runs a small mixed workload through the client.
func driveWorkload(c *client.Client, srv *server.Server) {
	root := srv.FS.RootFH()
	t := 1.0
	fh, t := c.Create(t, root, "inbox", false)
	t = c.WriteRange(t, fh, 0, 20000)
	c.Access(t+0.01, fh)
	fh2, _, t2 := c.Lookup(t+0.02, root, "inbox")
	_ = fh2
	c.ReadRange(t2+0.01, fh, 0, 20000)
	lk, t3 := c.Create(t2+0.5, root, "inbox.lock", false)
	_ = lk
	c.Remove(t3+0.01, root, "inbox.lock")
	c.Readdir(t3+0.1, root)
	c.SetattrTruncate(t3+0.2, fh, 1000)
}

func snif(pkts *packetBuf) ([]*core.Record, *Sniffer) {
	var got []*core.Record
	s := NewSniffer(func(r *core.Record) { got = append(got, r) })
	for _, p := range pkts.packets {
		s.HandlePacket(p.t, p.data)
	}
	return got, s
}

// assertRecordsMatch compares the sniffed records with the ground
// truth on their key fields (ignoring FH2/Name2 emptiness quirks).
func assertRecordsMatch(t *testing.T, want, got []*core.Record) {
	t.Helper()
	assertRecordsMatchWithin(t, want, got, 0)
}

// assertRecordsMatchWithin is assertRecordsMatch with times allowed to
// drift by tol seconds, as a pcap file's timestamps round them.
func assertRecordsMatchWithin(t *testing.T, want, got []*core.Record, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sniffed %d records, ground truth %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Kind != g.Kind || w.Proc != g.Proc || w.XID != g.XID ||
			w.Version != g.Version || w.Offset != g.Offset || w.Count != g.Count ||
			w.FH != g.FH || w.Name != g.Name || w.Status != g.Status ||
			w.RCount != g.RCount || w.Size != g.Size || w.NewFH != g.NewFH ||
			w.UID != g.UID || w.GID != g.GID {
			t.Fatalf("record %d mismatch:\nwant %+v\n got %+v", i, w, g)
		}
		if d := w.Time - g.Time; d > tol || d < -tol {
			t.Fatalf("record %d time drift: %v vs %v", i, w.Time, g.Time)
		}
	}
}

func TestSnifferMatchesGroundTruthUDPv3(t *testing.T) {
	c, records, pkts, srv := rig(nfs.V3, core.ProtoUDP, wire.StandardMTU)
	driveWorkload(c, srv)
	got, s := snif(pkts)
	assertRecordsMatch(t, records.Records, got)
	if s.Stats.Calls == 0 || s.Stats.Replies != s.Stats.Calls {
		t.Fatalf("stats: %+v", s.Stats)
	}
	if s.Stats.Fragments == 0 {
		t.Fatal("8k writes at MTU 1500 should fragment")
	}
	if s.PendingCalls() != 0 {
		t.Fatalf("%d pending calls leak", s.PendingCalls())
	}
}

func TestSnifferMatchesGroundTruthUDPv2(t *testing.T) {
	c, records, pkts, srv := rig(nfs.V2, core.ProtoUDP, wire.StandardMTU)
	driveWorkload(c, srv)
	got, _ := snif(pkts)
	assertRecordsMatch(t, records.Records, got)
}

func TestSnifferMatchesGroundTruthTCPJumbo(t *testing.T) {
	// The CAMPUS configuration: NFSv3 over TCP with 9000-byte frames.
	c, records, pkts, srv := rig(nfs.V3, core.ProtoTCP, wire.JumboMTU)
	driveWorkload(c, srv)
	got, _ := snif(pkts)
	assertRecordsMatch(t, records.Records, got)
}

func TestSnifferMatchesGroundTruthTCPStandard(t *testing.T) {
	// TCP at standard MTU: RPC messages span several segments
	// (coalescing/fragmenting at the record-marking layer).
	c, records, pkts, srv := rig(nfs.V3, core.ProtoTCP, wire.StandardMTU)
	driveWorkload(c, srv)
	got, _ := snif(pkts)
	assertRecordsMatch(t, records.Records, got)
}

func TestSnifferThroughPcapFile(t *testing.T) {
	c, records, pkts, srv := rig(nfs.V3, core.ProtoUDP, wire.StandardMTU)
	driveWorkload(c, srv)

	r, err := pcap.NewReader(bytes.NewReader(pcapBytes(t, pkts)))
	if err != nil {
		t.Fatal(err)
	}
	var got []*core.Record
	s := NewSniffer(func(rec *core.Record) { got = append(got, rec) })
	if err := s.ReadPcap(r); err != nil {
		t.Fatal(err)
	}
	// pcap nano timestamps keep ~1ns precision; compare times loosely.
	assertRecordsMatchWithin(t, records.Records, got, 1e-6)
	if s.Stats.Fragments == 0 {
		t.Fatal("8k writes at MTU 1500 should fragment")
	}
}

func TestSnifferLostCallYieldsOrphanReply(t *testing.T) {
	c, _, pkts, srv := rig(nfs.V3, core.ProtoUDP, wire.JumboMTU)
	root := srv.FS.RootFH()
	c.Create(1.0, root, "f", false)
	c.Access(1.1, srv.FS.RootFH())

	// Drop the first packet (the CREATE call).
	var got []*core.Record
	s := NewSniffer(func(r *core.Record) { got = append(got, r) })
	for i, p := range pkts.packets {
		if i == 0 {
			continue
		}
		s.HandlePacket(p.t, p.data)
	}
	if s.Stats.OrphanReplies != 1 {
		t.Fatalf("orphans: %+v", s.Stats)
	}
	if s.Stats.LossEstimate() <= 0 {
		t.Fatal("loss estimate is zero")
	}
	// The remaining access call+reply still decode.
	found := 0
	for _, r := range got {
		if r.Proc == core.MustProc("access") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("access records: %d", found)
	}
}

func TestSnifferAnonymizes(t *testing.T) {
	c, _, pkts, srv := rig(nfs.V3, core.ProtoUDP, wire.JumboMTU)
	root := srv.FS.RootFH()
	c.Create(1.0, root, "love-letter.txt", false)

	var got []*core.Record
	s := NewSniffer(func(r *core.Record) { got = append(got, r) })
	s.Anon = anon.New(anon.DefaultConfig(7))
	for _, p := range pkts.packets {
		s.HandlePacket(p.t, p.data)
	}
	for _, r := range got {
		if r.Name == "love-letter.txt" {
			t.Fatal("name leaked through anonymizer")
		}
		if r.Kind == core.KindCall && r.UID == 501 {
			t.Fatal("uid leaked through anonymizer")
		}
	}
}

func TestSnifferIgnoresGarbage(t *testing.T) {
	s := NewSniffer(nil)
	s.HandlePacket(1, []byte{1, 2, 3})
	garbage := wire.BuildUDP(wire.IP{1, 2, 3, 4}, wire.IP{5, 6, 7, 8}, 9, 10, 1,
		[]byte("not rpc at all..."))
	s.HandlePacket(2, garbage)
	if s.Stats.NonIP != 1 || s.Stats.NonRPC != 1 {
		t.Fatalf("stats: %+v", s.Stats)
	}
}

func TestSnifferEvictsStalePending(t *testing.T) {
	c, _, pkts, srv := rig(nfs.V3, core.ProtoUDP, wire.JumboMTU)
	c.Create(1.0, srv.FS.RootFH(), "a", false)
	s := NewSniffer(nil)
	s.PendingTimeout = 10
	// Deliver only the call.
	s.HandlePacket(1.0, pkts.packets[0].data)
	if s.PendingCalls() != 1 {
		t.Fatalf("pending = %d", s.PendingCalls())
	}
	// A later unrelated call triggers eviction.
	c2, _, pkts2, srv2 := rig(nfs.V3, core.ProtoUDP, wire.JumboMTU)
	c2.Access(100.0, srv2.FS.RootFH())
	s.HandlePacket(100.0, pkts2.packets[0].data)
	if s.Stats.EvictedPending != 1 {
		t.Fatalf("evicted = %d", s.Stats.EvictedPending)
	}
}

// TestSnifferCountsDroppedDatagrams: UDP datagrams that each lost their
// last fragment are not held forever; the ones given up are counted.
func TestSnifferCountsDroppedDatagrams(t *testing.T) {
	s := NewSniffer(nil)
	payload := make([]byte, 3000)
	for i := 0; i < 1000; i++ {
		frames := wire.FragmentUDP(wire.IP{10, 0, 0, 1}, wire.IP{10, 0, 0, 5}, 2049, 700, uint16(i), payload, wire.StandardMTU)
		for _, f := range frames[:len(frames)-1] {
			s.HandlePacket(float64(i), f)
		}
	}
	if d := s.Stats.DroppedDatagrams; d < 500 || d >= 1000 {
		t.Fatalf("dropped %d of 1000 incomplete datagrams, want all but the defragmenter's cap", d)
	}
	if s.Stats.Calls+s.Stats.Replies+s.Stats.NonRPC != 0 {
		t.Fatalf("an incomplete datagram was decoded: %+v", s.Stats)
	}
}
