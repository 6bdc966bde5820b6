// Package capture is the sniffer: it turns captured packets back into
// timestamped NFS trace records, reproducing the paper's tcpdump-derived
// tracing software (§2). It handles NFSv2 and NFSv3 over both UDP (with
// IP defragmentation) and TCP (with stream reassembly, RPC record
// marking, and packet coalescing), matches replies to calls by xid to
// recover each reply's procedure, decodes AUTH_SYS credentials for
// UID/GID, optionally anonymizes on the fly, and estimates capture loss
// the way §4.1.4 describes.
package capture

import (
	"encoding/hex"
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

// Stats counts what the sniffer saw.
type Stats struct {
	Packets        int64 // frames presented
	Fragments      int64 // IP fragments buffered
	NonIP          int64 // undecodable or non-IPv4 frames
	NonRPC         int64 // transport payloads that are not RPC
	NonNFS         int64 // RPC calls for other programs
	Calls          int64 // NFS calls decoded
	Replies        int64 // NFS replies decoded
	OrphanReplies  int64 // replies with no pending call (call lost)
	DecodeErrors   int64 // NFS bodies that failed to parse
	EvictedPending int64 // pending calls dropped by timeout
	// DroppedDatagrams counts incomplete UDP datagrams whose fragments
	// were given up: restarted by a reused IPID, or dropped oldest first
	// once the defragmenter's cap on open reassemblies was reached.
	DroppedDatagrams int64
}

// LossEstimate mirrors core.JoinStats: orphan replies imply lost calls.
func (s Stats) LossEstimate() float64 {
	total := s.Calls + s.Replies + s.OrphanReplies
	if total == 0 {
		return 0
	}
	return float64(s.OrphanReplies) / float64(total)
}

type pendingKey struct {
	client uint32
	port   uint16
	xid    uint32
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
	// Emit receives each decoded record in capture order.
	Emit func(*core.Record)
	// PendingTimeout bounds how long a call waits for its reply before
	// its table entry is evicted (seconds).
	PendingTimeout float64

	Stats Stats

	frame   wire.Frame // the packet being handled
	defrag  *wire.Defragmenter
	asm     *tcpasm.Assembler
	scan    map[wire.FlowKey]*rpc.RecordScanner
	pending map[pendingKey]pendingCall
	// evictq tracks insertion order for timeout eviction.
	evictq []pendingKey
	lastT  float64
}

// NewSniffer builds a sniffer delivering records to emit.
func NewSniffer(emit func(*core.Record)) *Sniffer {
	return &Sniffer{
		Emit:           emit,
		PendingTimeout: 60,
		defrag:         wire.NewDefragmenter(),
		asm:            tcpasm.NewAssembler(),
		scan:           make(map[wire.FlowKey]*rpc.RecordScanner),
		pending:        make(map[pendingKey]pendingCall),
	}
}

// HandlePacket processes one captured frame at capture time t. It keeps
// no reference to data after it returns.
func (s *Sniffer) HandlePacket(t float64, data []byte) {
	s.Stats.Packets++
	s.lastT = t
	f := &s.frame
	if err := wire.DecodeInto(f, data); err != nil {
		s.Stats.NonIP++
		return
	}
	if f.IsFragment {
		s.Stats.Fragments++
		whole := s.defrag.Reassemble(f)
		s.Stats.DroppedDatagrams = s.defrag.Dropped()
		if !whole {
			return
		}
	}
	switch f.Proto {
	case wire.ProtoUDP:
		s.handleMessage(t, f, f.Payload)
	case wire.ProtoTCP:
		data, _ := s.asm.Add(f)
		if len(data) == 0 {
			return
		}
		key := f.Flow()
		sc := s.scan[key]
		if sc == nil {
			sc = &rpc.RecordScanner{}
			s.scan[key] = sc
		}
		sc.Append(data)
		for {
			msg, err := sc.Next()
			if err != nil {
				// Framing lost (e.g. after capture loss): reset the
				// scanner; it resynchronizes at the next connection.
				s.scan[key] = &rpc.RecordScanner{}
				s.Stats.NonRPC++
				return
			}
			if msg == nil {
				return
			}
			s.handleMessage(t, f, msg)
		}
	}
}

// handleMessage decodes one RPC message (a full datagram or record).
func (s *Sniffer) handleMessage(t float64, f *wire.Frame, msg []byte) {
	dec, err := rpc.Decode(msg)
	if err != nil {
		s.Stats.NonRPC++
		return
	}
	proto := byte(core.ProtoUDP)
	if f.Proto == wire.ProtoTCP {
		proto = core.ProtoTCP
	}
	switch dec.Type {
	case rpc.Call:
		ch := dec.Call
		var rec *core.Record
		switch ch.Program {
		case rpc.ProgramNFS:
			info, err := nfs.ParseCall(ch.Version, ch.Proc, ch.Args)
			if err != nil {
				s.Stats.DecodeErrors++
				return
			}
			rec = &core.Record{
				Time: t, Kind: core.KindCall,
				Client: f.SrcIP.Uint32(), Port: f.SrcPort,
				Server: f.DstIP.Uint32(), Proto: proto,
				XID: ch.XID, Version: ch.Version, Proc: core.MustProc(info.Name),
				FH: internFH(info.FH), Name: info.FName,
				FH2: internFH(info.FH2), Name2: info.FName2,
				Offset: info.Offset, Count: info.Count, Stable: info.Stable,
			}
			if info.SetSize != nil {
				rec.SetSize, rec.HasSet = *info.SetSize, true
			}
		case rpc.ProgramMount:
			rec = &core.Record{
				Time: t, Kind: core.KindCall,
				Client: f.SrcIP.Uint32(), Port: f.SrcPort,
				Server: f.DstIP.Uint32(), Proto: proto,
				XID: ch.XID, Version: ch.Version,
				Proc: internProc(ch.Proc, rpc.ProgramMount, ch.Version),
			}
			if ch.Proc == mount.ProcMnt || ch.Proc == mount.ProcUmnt {
				args, err := mount.DecodeMntArgs(ch.Args)
				if err != nil {
					s.Stats.DecodeErrors++
					return
				}
				rec.Name = args.DirPath
			}
		default:
			s.Stats.NonNFS++
			return
		}
		s.Stats.Calls++
		if ch.Cred.Flavor == rpc.AuthSys {
			if auth, err := rpc.DecodeAuthSys(ch.Cred.Body); err == nil {
				rec.UID, rec.GID = auth.UID, auth.GID
			}
		}
		key := pendingKey{rec.Client, rec.Port, ch.XID}
		if _, dup := s.pending[key]; !dup {
			s.pending[key] = pendingCall{program: ch.Program, version: ch.Version, proc: ch.Proc, t: t}
			s.evictq = append(s.evictq, key)
		}
		s.deliver(rec)
		s.evictOld(t)
	case rpc.Reply:
		rh := dec.Reply
		// The reply's client is the packet's destination.
		key := pendingKey{f.DstIP.Uint32(), f.DstPort, rh.XID}
		call, ok := s.pending[key]
		if !ok {
			s.Stats.OrphanReplies++
			return
		}
		delete(s.pending, key)
		if rh.ReplyStat != rpc.MsgAccepted || rh.AcceptStat != rpc.Success {
			// Rejected RPCs carry no NFS body; emit a bare error reply.
			s.Stats.Replies++
			s.deliver(&core.Record{
				Time: t, Kind: core.KindReply,
				Client: f.DstIP.Uint32(), Port: f.DstPort,
				Server: f.SrcIP.Uint32(), Proto: proto,
				XID: rh.XID, Version: call.version,
				Proc:   internProc(call.proc, call.program, call.version),
				Status: nfs.ErrIO,
			})
			return
		}
		if call.program == rpc.ProgramMount {
			rec := &core.Record{
				Time: t, Kind: core.KindReply,
				Client: f.DstIP.Uint32(), Port: f.DstPort,
				Server: f.SrcIP.Uint32(), Proto: proto,
				XID: rh.XID, Version: call.version,
				Proc: internProc(call.proc, call.program, call.version),
			}
			if call.proc == mount.ProcMnt {
				res, err := mount.DecodeMntRes(rh.Results)
				if err != nil {
					s.Stats.DecodeErrors++
					return
				}
				rec.Status = res.Status
				rec.NewFH = internFH(res.FH)
			}
			s.Stats.Replies++
			s.deliver(rec)
			return
		}
		info, err := nfs.ParseReply(call.version, call.proc, rh.Results)
		if err != nil {
			s.Stats.DecodeErrors++
			return
		}
		s.Stats.Replies++
		rec := &core.Record{
			Time: t, Kind: core.KindReply,
			Client: f.DstIP.Uint32(), Port: f.DstPort,
			Server: f.SrcIP.Uint32(), Proto: proto,
			XID: rh.XID, Version: call.version, Proc: core.MustProc(info.Name),
			Status: info.Status, RCount: info.Count, EOF: info.EOF,
			NewFH: internFH(info.NewFH),
		}
		if info.Attr != nil {
			rec.Size = info.Attr.Size
			rec.FileID = info.Attr.FileID
			rec.Mtime = info.Attr.Mtime.Seconds()
		}
		if info.Pre != nil {
			rec.PreSize, rec.HasPre = info.Pre.Size, true
		}
		s.deliver(rec)
	}
}

// internFH interns a handle by its hex spelling, rendered into a stack
// buffer rather than a string: the spelling is only looked up, and
// copied only the first time the table sees it.
func internFH(fh []byte) core.FH {
	var spelling [2 * nfs.V3MaxFHSize]byte
	if len(fh) > nfs.V3MaxFHSize {
		return core.InternFH(hex.EncodeToString(fh))
	}
	return core.InternFHBytes(spelling[:hex.Encode(spelling[:], fh)])
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

func (s *Sniffer) deliver(rec *core.Record) {
	if s.Anon != nil {
		s.Anon.Record(rec)
	}
	if s.Emit != nil {
		s.Emit(rec)
	}
}

// evictOld drops pending calls older than the timeout, bounding table
// growth when replies are lost.
func (s *Sniffer) evictOld(now float64) {
	for len(s.evictq) > 0 {
		key := s.evictq[0]
		call, ok := s.pending[key]
		if !ok {
			s.evictq = s.evictq[1:]
			continue
		}
		if now-call.t < s.PendingTimeout {
			return
		}
		delete(s.pending, key)
		s.evictq = s.evictq[1:]
		s.Stats.EvictedPending++
	}
}

// PendingCalls reports calls still awaiting replies.
func (s *Sniffer) PendingCalls() int { return len(s.pending) }

// ReadPcap drains an entire pcap stream through the sniffer, reading
// every packet into the one buffer the Reader reuses.
func (s *Sniffer) ReadPcap(r *pcap.Reader) error {
	var p pcap.Packet
	for {
		err := r.ReadPacket(&p)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		s.HandlePacket(p.Time, p.Data)
	}
}
