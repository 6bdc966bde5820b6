package main

import (
	"bytes"
	"io"
	"os"

	"repro/internal/anon"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/rpc"
	"repro/internal/tcpasm"
	"repro/internal/wire"
)

// message is one RPC message lifted out of a TCP stream, with the frame
// that completed it (for the flow's addresses).
type message struct {
	frame *wire.Frame
	raw   []byte
	dec   *rpc.Decoded
}

// callKey matches a reply to its call the way the sniffer does.
type callKey struct {
	client uint32
	port   uint16
	xid    uint32
}

// capture replays capture_pcap: the sniffer whole, then each codec it
// calls on the same packets — pcap, wire decode and defragmentation,
// tcpasm and rpc framing (TCP captures only), rpc headers, nfs bodies —
// then the text writer and the anonymizer on the records it emitted.
func (t *tracer) capture() error {
	data, err := os.ReadFile(t.job.Pcap)
	if err != nil {
		return err
	}
	root := t.rec.Start("replay", -1)

	var packets []*pcap.Packet
	id := t.rec.Time("pcap.read", root, func() int64 {
		var pr *pcap.Reader
		pr, err = pcap.NewReader(bytes.NewReader(data))
		if err != nil {
			return 0
		}
		for {
			var p *pcap.Packet
			p, err = pr.Next()
			if err != nil {
				break
			}
			packets = append(packets, p)
		}
		if err == io.EOF {
			err = nil
		}
		return int64(len(packets))
	})
	if err != nil {
		return err
	}
	data = nil
	npkt := int64(len(packets))
	t.perUnit("pcap.read_ns_per_pkt", id)

	var records []*core.Record
	sn := capture.NewSniffer(func(r *core.Record) { records = append(records, r) })
	snifferID := t.rec.Time("capture.sniffer", root, func() int64 {
		for _, p := range packets {
			sn.HandlePacket(p.Time, p.Data)
		}
		return npkt
	})
	st := sn.Stats
	t.m["capture.decode_error_share"] = ratio(float64(st.DecodeErrors), float64(st.Calls+st.Replies+st.DecodeErrors))
	t.m["capture.orphan_reply_share"] = ratio(float64(st.OrphanReplies), float64(st.Replies+st.OrphanReplies))

	// The sniffer's children, one stage at a time over the same packets.
	frames := make([]*wire.Frame, 0, len(packets))
	id = t.rec.Time("wire.decode", snifferID, func() int64 {
		for _, p := range packets {
			if f, err := wire.Decode(p.Data); err == nil {
				frames = append(frames, f)
			}
		}
		return npkt
	})
	t.perUnit("wire.decode_ns_per_pkt", id)

	// IP fragments (UDP at standard MTU) become whole datagrams.
	whole := frames[:0:0]
	id = t.rec.Time("wire.defrag", snifferID, func() int64 {
		df := wire.NewDefragmenter()
		for _, f := range frames {
			if f.IsFragment {
				if f = df.Add(f); f == nil {
					continue
				}
			}
			whole = append(whole, f)
		}
		return npkt
	})
	t.perUnit("wire.defrag_ns_per_pkt", id)
	frames = nil

	// TCP segments become stream chunks; a UDP datagram is a message.
	type chunk struct {
		frame *wire.Frame
		data  []byte
	}
	var chunks []chunk
	var msgs []message
	id = t.rec.Time("tcpasm.add", snifferID, func() int64 {
		asm := tcpasm.NewAssembler()
		for _, f := range whole {
			if f.Proto != wire.ProtoTCP {
				continue
			}
			if d, _ := asm.Add(f); len(d) > 0 {
				chunks = append(chunks, chunk{f, d})
			}
		}
		return npkt
	})
	if len(chunks) == 0 {
		t.rec.Spans[id].Units = 0 // no TCP in this capture: nothing was reassembled
	}
	t.perUnit("tcpasm.add_ns_per_pkt", id)
	for _, f := range whole {
		if f.Proto == wire.ProtoUDP {
			msgs = append(msgs, message{frame: f, raw: f.Payload})
		}
	}
	whole = nil

	id = t.rec.Time("rpc.scan", snifferID, func() int64 {
		scanners := make(map[wire.FlowKey]*rpc.RecordScanner)
		for _, c := range chunks {
			key := c.frame.Flow()
			sc := scanners[key]
			if sc == nil {
				sc = &rpc.RecordScanner{}
				scanners[key] = sc
			}
			sc.Append(c.data)
			for {
				raw, err := sc.Next()
				if err != nil || raw == nil {
					break
				}
				msgs = append(msgs, message{frame: c.frame, raw: raw})
			}
		}
		return int64(len(msgs))
	})
	if len(chunks) == 0 {
		t.rec.Spans[id].Units = 0 // no TCP in this capture: nothing was scanned
	}
	t.perUnit("rpc.scan_ns_per_msg", id)
	chunks = nil
	nmsg := int64(len(msgs))

	id = t.rec.Time("rpc.decode", snifferID, func() int64 {
		for i := range msgs {
			msgs[i].dec, _ = rpc.Decode(msgs[i].raw)
		}
		return nmsg
	})
	t.perUnit("rpc.decode_ns_per_msg", id)

	id = t.rec.Time("nfs.parse", snifferID, func() int64 {
		type call struct{ version, proc uint32 }
		pending := make(map[callKey]call)
		for _, m := range msgs {
			if m.dec == nil {
				continue
			}
			f := m.frame
			switch m.dec.Type {
			case rpc.Call:
				ch := m.dec.Call
				if ch.Program != rpc.ProgramNFS {
					continue
				}
				_, _ = nfs.ParseCall(ch.Version, ch.Proc, ch.Args)
				pending[callKey{f.SrcIP.Uint32(), f.SrcPort, ch.XID}] = call{ch.Version, ch.Proc}
			case rpc.Reply:
				rh := m.dec.Reply
				key := callKey{f.DstIP.Uint32(), f.DstPort, rh.XID}
				if c, ok := pending[key]; ok {
					delete(pending, key)
					_, _ = nfs.ParseReply(c.version, c.proc, rh.Results)
				}
			}
		}
		return nmsg
	})
	t.perUnit("nfs.parse_ns_per_msg", id)
	msgs = nil

	nrecs := int64(len(records))
	id = t.rec.Time("core.marshal", root, func() int64 {
		var line []byte
		for _, r := range records {
			line = r.AppendMarshal(line[:0])
		}
		return nrecs
	})
	t.perUnit("core.marshal_ns_per_rec", id)

	// Last: the anonymizer rewrites the records in place.
	id = t.rec.Time("anon.record", root, func() int64 {
		a := anon.New(anon.DefaultConfig(t.job.Seed))
		for _, r := range records {
			a.Record(r)
		}
		return nrecs
	})
	t.perUnit("anon.record_ns_per_rec", id)
	t.rec.End(root, npkt)
	records = nil

	// Self time of the sniffer: what it spends beyond the codecs it
	// calls — flow and pending-call tables, record construction.
	self := spanSelf(t, snifferID)
	t.m["capture.sniffer_ns_per_pkt"] = ratio(float64(self), float64(npkt))

	// Un-staged: nfstrace's loop — pcap file to sniffer to text writer.
	packets = nil
	t.rec.Pass = 1
	f, err := os.Open(t.job.Pcap)
	if err != nil {
		return err
	}
	defer f.Close()
	id = t.rec.Time("inproc", -1, func() int64 {
		var pr *pcap.Reader
		if pr, err = pcap.NewReader(f); err != nil {
			return 0
		}
		tw := core.NewWriter(io.Discard)
		var werr error
		sn := capture.NewSniffer(func(r *core.Record) {
			if werr == nil {
				werr = tw.Write(r)
			}
		})
		if err = sn.ReadPcap(pr); err == nil {
			err = werr
		}
		if err == nil {
			err = tw.Flush()
		}
		return npkt
	})
	t.out.InprocWallS = float64(t.rec.Spans[id].Dur()) / 1e9
	return err
}
