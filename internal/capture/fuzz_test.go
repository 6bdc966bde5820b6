package capture

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/tcpasm"
	"repro/internal/wire"
)

// sniffResult is everything a pass of the sniffer reports.
type sniffResult struct {
	lines   []string
	stats   Stats
	err     string
	packets int64
}

// sniffReadPcap runs ReadPcap as nfstrace does: every packet is read
// where it lies in the pcap reader's buffer, and every record is handed
// back once rendered. The file comes a byte at a time, so each packet
// is read over the place of the one before it, as a refill does.
func sniffReadPcap(capture []byte) sniffResult {
	var res sniffResult
	r, err := pcap.NewReader(iotest.OneByteReader(bytes.NewReader(capture)))
	if err != nil {
		return sniffResult{err: err.Error()}
	}
	var s *Sniffer
	s = NewSniffer(func(rec *core.Record) {
		res.lines = append(res.lines, rec.Marshal())
		s.Recycle(rec)
	})
	if err := s.ReadPcap(r); err != nil {
		res.err = err.Error()
	}
	res.stats = s.Stats
	return res
}

// sniffFresh feeds HandlePacket packets from Next, each in storage of
// its own that nothing else writes, and ends the capture as ReadPcap
// does. It fails tb when the TCP
// flows hold more than their cap behind holes after any packet.
func sniffFresh(tb testing.TB, capture []byte) sniffResult {
	var res sniffResult
	r, err := pcap.NewReader(bytes.NewReader(capture))
	if err != nil {
		return sniffResult{err: err.Error()}
	}
	s := NewSniffer(func(rec *core.Record) { res.lines = append(res.lines, rec.Marshal()) })
	for {
		p, err := r.Next()
		if err == io.EOF {
			s.endCapture()
		}
		if err != nil {
			if err != io.EOF {
				res.err = err.Error()
			}
			break
		}
		res.packets++
		s.HandlePacket(p.Time, p.Data)
		if flows, held := s.asm.Held(); held > flows*tcpasm.MaxHeldBytes {
			tb.Fatalf("packet %d: %d flows hold %d bytes", res.packets, flows, held)
		}
	}
	res.stats = s.Stats
	return res
}

// fuzzSeedWorkload is a short mix: a WRITE and a READ that fragment at
// the standard MTU, and the metadata calls around them. The seeds stay
// a few KiB, so the fuzzer mutates and minimizes them quickly.
func fuzzSeedWorkload(tb testing.TB, version uint32, proto byte, mtu int) []byte {
	c, _, pkts, srv := rig(version, proto, mtu)
	root := srv.FS.RootFH()
	fh, t := c.Create(1, root, "mbox", false)
	t = c.WriteRange(t, fh, 0, 2000)
	_, t = c.ReadRange(t+0.01, fh, 0, 2000)
	c.Remove(t+0.01, root, "mbox")
	return pcapBytes(tb, pkts)
}

// FuzzCapture feeds arbitrary packet records, after a valid pcap file
// header, through the capture path twice: ReadPcap, which reads each
// packet in place and whose records are recycled, and Next +
// HandlePacket on fresh packets, whose records are kept. The two must
// emit the same records and statistics, neither may panic, and no TCP
// flow may hold more than its cap behind a hole after any packet. Any
// reference the sniffer kept into a packet past HandlePacket would be
// overwritten by the next read in the first pass, and any field a
// recycled record carried over would change its line: either shows as
// a difference. At the standard MTU only data bytes reach non-first
// fragments, so the 68-byte MTU seed spreads every RPC header and NFS
// argument list over several, where a stale reference changes records.
func FuzzCapture(f *testing.F) {
	seeds := [][]byte{
		fuzzSeedWorkload(f, nfs.V3, core.ProtoUDP, wire.StandardMTU),
		fuzzSeedWorkload(f, nfs.V2, core.ProtoUDP, wire.StandardMTU),
		fuzzSeedWorkload(f, nfs.V3, core.ProtoTCP, wire.StandardMTU),
		fuzzSeedWorkload(f, nfs.V3, core.ProtoTCP, wire.JumboMTU),
		fuzzSeedWorkload(f, nfs.V3, core.ProtoUDP, wire.JumboMTU),
		fuzzSeedWorkload(f, nfs.V3, core.ProtoUDP, 68), // the IPv4 minimum MTU
	}
	header := seeds[0][:24]
	for _, s := range seeds {
		f.Add(s[24:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		capture := append(append([]byte{}, header...), body...)
		reused, fresh := sniffReadPcap(capture), sniffFresh(t, capture)
		if !reflect.DeepEqual(reused.lines, fresh.lines) {
			t.Fatalf("records differ: ReadPcap %d, Next %d", len(reused.lines), len(fresh.lines))
		}
		if reused.stats != fresh.stats || reused.err != fresh.err {
			t.Fatalf("ReadPcap %+v (%q), Next %+v (%q)", reused.stats, reused.err, fresh.stats, fresh.err)
		}
		st := fresh.stats
		if st.Packets != fresh.packets || st.Fragments+st.NonIP > st.Packets ||
			int64(len(fresh.lines)) != st.Calls+st.Replies {
			t.Fatalf("stats do not add up: %+v over %d packets, %d records", st, fresh.packets, len(fresh.lines))
		}
	})
}
