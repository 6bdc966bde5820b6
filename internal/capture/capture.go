// Package capture is the sniffer: it turns captured packets back into
// timestamped NFS trace records, reproducing the paper's tcpdump-derived
// tracing software (§2). It handles NFSv2 and NFSv3 over both UDP (with
// IP defragmentation) and TCP (with stream reassembly that skips the
// holes a lossy capture leaves, RPC record marking, and packet
// coalescing), matches replies to calls by xid to recover each reply's
// procedure, decodes AUTH_SYS credentials for UID/GID, optionally
// anonymizes on the fly, and estimates capture loss the way §4.1.4
// describes.
package capture

import (
	"io"

	"repro/internal/anon"
	"repro/internal/core"
	"repro/internal/mount"
	"repro/internal/nfs"
	"repro/internal/pcap"
	"repro/internal/rpc"
	"repro/internal/tcpasm"
	"repro/internal/wire"
)

// Stats counts what the sniffer saw. Its join counts give the §4.1.4
// loss estimate, LossEstimate: Replies counts the replies that matched
// a call, and UnmatchedCalls the calls given up after
// core.DefaultMaxCallAge or still pending when ReadPcap ends.
type Stats struct {
	core.JoinStats
	Packets      int64 // frames presented
	Fragments    int64 // IP fragments buffered
	NonIP        int64 // undecodable or non-IPv4 frames
	NonRPC       int64 // transport payloads that are not RPC
	NonNFS       int64 // RPC calls for other programs
	DecodeErrors int64 // NFS bodies that failed to parse
	// DroppedDatagrams counts incomplete UDP datagrams whose fragments
	// were given up: restarted by a reused IPID, dropped oldest first
	// once the defragmenter's cap on open reassemblies was reached, or
	// still missing fragments when ReadPcap ends.
	DroppedDatagrams int64
}

// pendingKey names a call: its client's address and port and its xid.
// The fields are ordered so that all three lie in one run of memory,
// which the map hashes in one call.
type pendingKey struct {
	client uint32
	xid    uint32
	port   uint16
}

type pendingCall struct {
	program uint32
	version uint32
	proc    uint32
	t       float64
}

// Sniffer decodes packets into trace records.
type Sniffer struct {
	// Anon, when set, anonymizes each record before emission.
	Anon *anon.Anonymizer
	// Emit receives each decoded record in capture order. The record
	// is the consumer's to keep, or to hand back through Recycle once
	// it is done with it.
	Emit func(*core.Record)

	Stats Stats

	frame wire.Frame // the packet being handled
	// The decoders' storage, reused for every message: what they
	// return is done with before the next message is decoded.
	rpc     rpc.Decoder
	auth    rpc.AuthSysBody
	nfs     nfs.Decoder
	defrag  *wire.Defragmenter
	asm     *tcpasm.Assembler
	pending map[pendingKey]pendingCall
	// evictq tracks insertion order for timeout eviction.
	evictq []pendingKey

	// Records come from stock, refilled with the records consumers hand
	// back through spent (core's record pool). rec is the one taken for
	// the message being decoded; a message that emits nothing leaves it
	// to the next, which zeroes it.
	stock core.RecordStock
	spent core.RecycleBatch
	rec   *core.Record
}

// NewSniffer builds a sniffer delivering records to emit.
func NewSniffer(emit func(*core.Record)) *Sniffer {
	return &Sniffer{
		Emit:    emit,
		defrag:  wire.NewDefragmenter(),
		asm:     tcpasm.NewAssembler(),
		pending: make(map[pendingKey]pendingCall),
	}
}

// HandlePacket processes one captured frame at capture time t. It keeps
// no reference to data after it returns.
func (s *Sniffer) HandlePacket(t float64, data []byte) {
	s.Stats.Packets++
	f := &s.frame
	if err := wire.DecodeInto(f, data); err != nil {
		s.Stats.NonIP++
		return
	}
	if f.IsFragment {
		s.Stats.Fragments++
		dropped := s.defrag.Dropped()
		whole := s.defrag.Reassemble(f)
		s.Stats.DroppedDatagrams += s.defrag.Dropped() - dropped
		if !whole {
			return
		}
	}
	switch f.Proto {
	case wire.ProtoUDP:
		s.handleMessage(t, f.Flow(), f.Payload)
	case wire.ProtoTCP:
		// The ACK can release what the other direction held behind a hole.
		s.records(t, s.asm.Ack(f))
		_, st := s.asm.Add(f)
		s.records(t, st)
	}
	// Like the packet, a reassembled datagram is done with: the records
	// keep none of it.
	s.defrag.Recycle(f)
}

// records handles the RPC records a TCP stream has completed.
func (s *Sniffer) records(t float64, st *tcpasm.Stream) {
	if st == nil {
		return
	}
	for {
		msg, err := st.Next()
		if err != nil {
			s.Stats.NonRPC++
		}
		if msg == nil {
			return
		}
		s.handleMessage(t, st.Flow, msg)
	}
}

// handleMessage decodes one RPC message (a full datagram or record)
// carried by the flow direction k. The record it emits holds nothing
// of msg: names are copied and handles interned.
func (s *Sniffer) handleMessage(t float64, k wire.FlowKey, msg []byte) {
	dec, err := s.rpc.Decode(msg)
	if err != nil {
		s.Stats.NonRPC++
		return
	}
	proto := byte(core.ProtoUDP)
	if k.Proto == wire.ProtoTCP {
		proto = core.ProtoTCP
	}
	switch dec.Type {
	case rpc.Call:
		ch := dec.Call
		if ch.Program != rpc.ProgramNFS && ch.Program != rpc.ProgramMount {
			s.Stats.NonNFS++
			return
		}
		rec := s.record()
		rec.Time, rec.Kind, rec.Proto = t, core.KindCall, proto
		rec.Client, rec.Port, rec.Server = k.SrcIP.Uint32(), k.SrcPort, k.DstIP.Uint32()
		rec.XID, rec.Version = ch.XID, ch.Version
		if ch.Program == rpc.ProgramNFS {
			if s.nfs.CallRecord(rec, ch.Version, ch.Proc, ch.Args) != nil {
				s.Stats.DecodeErrors++
				return
			}
		} else {
			rec.Proc = internProc(ch.Proc, rpc.ProgramMount, ch.Version)
			if ch.Proc == mount.ProcMnt || ch.Proc == mount.ProcUmnt {
				args, err := mount.DecodeMntArgs(ch.Args)
				if err != nil {
					s.Stats.DecodeErrors++
					return
				}
				rec.Name = args.DirPath
			}
		}
		s.Stats.Calls++
		if ch.Cred.Flavor == rpc.AuthSys {
			if rpc.DecodeAuthSysInto(&s.auth, ch.Cred.Body) == nil {
				rec.UID, rec.GID = s.auth.UID, s.auth.GID
			}
		}
		key := pendingKey{client: rec.Client, xid: ch.XID, port: rec.Port}
		if _, dup := s.pending[key]; !dup {
			s.pending[key] = pendingCall{program: ch.Program, version: ch.Version, proc: ch.Proc, t: t}
			s.evictq = append(s.evictq, key)
		}
		s.deliver(rec)
		s.evictOld(t)
	case rpc.Reply:
		rh := dec.Reply
		// The reply's client is the packet's destination.
		key := pendingKey{client: k.DstIP.Uint32(), xid: rh.XID, port: k.DstPort}
		call, ok := s.pending[key]
		if !ok {
			s.Stats.OrphanReplies++
			return
		}
		delete(s.pending, key)
		rec := s.record()
		rec.Time, rec.Kind, rec.Proto = t, core.KindReply, proto
		rec.Client, rec.Port, rec.Server = k.DstIP.Uint32(), k.DstPort, k.SrcIP.Uint32()
		rec.XID, rec.Version = rh.XID, call.version
		switch {
		case rh.ReplyStat != rpc.MsgAccepted || rh.AcceptStat != rpc.Success:
			// Rejected RPCs carry no NFS body; emit a bare error reply.
			rec.Proc = internProc(call.proc, call.program, call.version)
			rec.Status = nfs.ErrIO
		case call.program == rpc.ProgramMount:
			rec.Proc = internProc(call.proc, call.program, call.version)
			if call.proc == mount.ProcMnt {
				res, err := mount.DecodeMntRes(rh.Results)
				if err != nil {
					s.Stats.DecodeErrors++
					return
				}
				rec.Status, rec.NewFH = res.Status, res.FH.Intern()
			}
		default:
			if s.nfs.ReplyRecord(rec, call.version, call.proc, rh.Results) != nil {
				s.Stats.DecodeErrors++
				return
			}
		}
		s.Stats.Replies++
		s.Stats.Matched++
		s.deliver(rec)
	}
}

// internProc interns the procedure name of a decoded RPC. Out-of-range
// procedure numbers render as nfs.ProcName's "proc-N" forms, which
// register dynamically; should a hostile capture exhaust the byte-sized
// table, the name collapses to "null" rather than dropping the record.
func internProc(proc, program, version uint32) core.ProcID {
	name := nfs.ProcName(version, proc)
	if program == rpc.ProgramMount {
		name = mount.ProcName(proc)
	}
	id, err := core.InternProc(name)
	if err != nil {
		return core.ProcNull
	}
	return id
}

// record returns a zeroed record to decode the current message into.
func (s *Sniffer) record() *core.Record {
	if s.rec == nil {
		s.rec = s.stock.Next()
	} else {
		*s.rec = core.Record{} // filled by a message that emitted nothing
	}
	return s.rec
}

// Recycle implements core.RecordRecycler: it takes back a record Emit
// received, once its consumer holds no other reference to it, for a
// later message to be decoded into. It may be called from a goroutine
// other than the one running the sniffer, but from one at a time.
func (s *Sniffer) Recycle(rec *core.Record) { s.spent.Recycle(rec) }

func (s *Sniffer) deliver(rec *core.Record) {
	s.rec = nil
	if s.Anon != nil {
		s.Anon.Record(rec)
	}
	if s.Emit != nil {
		s.Emit(rec)
	}
}

// evictOld gives up pending calls older than core.DefaultMaxCallAge,
// bounding table growth when replies are lost.
func (s *Sniffer) evictOld(now float64) {
	for len(s.evictq) > 0 {
		key := s.evictq[0]
		call, ok := s.pending[key]
		if !ok {
			s.evictq = s.evictq[1:]
			continue
		}
		if now-call.t < core.DefaultMaxCallAge {
			return
		}
		delete(s.pending, key)
		s.evictq = s.evictq[1:]
		s.Stats.UnmatchedCalls++
	}
}

// PendingCalls reports calls still awaiting replies.
func (s *Sniffer) PendingCalls() int { return len(s.pending) }

// ReadPcap drains an entire pcap stream through the sniffer, each
// packet read where it lies in the Reader's buffer. At its end the
// calls still pending count as unmatched and the datagrams still
// missing fragments as dropped.
func (s *Sniffer) ReadPcap(r *pcap.Reader) error {
	var p pcap.Packet
	for {
		err := r.ReadPacket(&p)
		if err == io.EOF {
			s.endCapture()
			return nil
		}
		if err != nil {
			return err
		}
		s.HandlePacket(p.Time, p.Data)
	}
}

// endCapture gives up what the capture's end leaves waiting: pending
// calls become unmatched and incomplete datagrams dropped.
func (s *Sniffer) endCapture() {
	s.Stats.UnmatchedCalls += int64(len(s.pending))
	clear(s.pending)
	s.Stats.DroppedDatagrams += int64(s.defrag.Evict())
}
