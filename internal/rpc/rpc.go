// Package rpc implements the ONC RPC version 2 message layer (RFC 1831)
// that carries NFS: CALL and REPLY headers, transaction IDs, credential
// and verifier opaque-auth bodies, and the record-marking framing used
// over TCP.
//
// The sniffer decodes RPC headers to find NFS program calls and to match
// replies back to calls by xid; the workload generators encode them to
// synthesize wire traffic.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/xdr"
)

// Message type discriminants.
const (
	Call  = 0
	Reply = 1
)

// Reply status.
const (
	MsgAccepted = 0
	MsgDenied   = 1
)

// Accept status (within an accepted reply).
const (
	Success      = 0
	ProgUnavail  = 1
	ProgMismatch = 2
	ProcUnavail  = 3
	GarbageArgs  = 4
	SystemErr    = 5
)

// Auth flavors.
const (
	AuthNone = 0
	AuthSys  = 1 // AUTH_UNIX
)

// RPCVersion is the only ONC RPC version in use.
const RPCVersion = 2

// Well-known program numbers.
const (
	ProgramNFS   = 100003
	ProgramMount = 100005
)

// ErrNotRPC reports a packet that does not parse as an RPC message.
var ErrNotRPC = errors.New("rpc: not an RPC message")

// OpaqueAuth is a credential or verifier: a flavor and opaque body.
type OpaqueAuth struct {
	Flavor uint32
	Body   []byte
}

// AuthSysBody is the decoded form of an AUTH_SYS credential, which is
// where NFS requests carry the caller's UID and GID — the fields the
// anonymizer must rewrite.
type AuthSysBody struct {
	Stamp       uint32
	MachineName string
	UID         uint32
	GID         uint32
	GIDs        []uint32
}

// Encode serializes the AUTH_SYS body in XDR form.
func (a *AuthSysBody) Encode(e *xdr.Encoder) {
	e.PutUint32(a.Stamp)
	e.PutString(a.MachineName)
	e.PutUint32(a.UID)
	e.PutUint32(a.GID)
	e.PutUint32(uint32(len(a.GIDs)))
	for _, g := range a.GIDs {
		e.PutUint32(g)
	}
}

// DecodeAuthSys parses an AUTH_SYS credential body.
func DecodeAuthSys(body []byte) (*AuthSysBody, error) {
	d := xdr.NewDecoder(body)
	a := &AuthSysBody{Stamp: d.Uint32(), MachineName: d.String(), UID: d.Uint32(), GID: d.Uint32()}
	n := d.Count()
	if n > 16 { // RFC 1831 limits auth_sys gids to 16
		d.Fail(fmt.Errorf("rpc: %d gids exceeds AUTH_SYS limit", n))
	} else {
		for i := 0; i < n; i++ {
			a.GIDs = append(a.GIDs, d.Uint32())
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// CallHeader is a decoded RPC call header. Args holds the procedure
// arguments (undecoded), aliasing the packet buffer.
type CallHeader struct {
	XID     uint32
	Program uint32
	Version uint32
	Proc    uint32
	Cred    OpaqueAuth
	Verf    OpaqueAuth
	Args    []byte
}

// ReplyHeader is a decoded RPC reply header. Results holds the procedure
// results (undecoded) for accepted/success replies.
type ReplyHeader struct {
	XID        uint32
	ReplyStat  uint32 // MsgAccepted or MsgDenied
	AcceptStat uint32 // valid when ReplyStat == MsgAccepted
	Verf       OpaqueAuth
	Results    []byte
}

// EncodeCall serializes a call message: header followed by args.
func EncodeCall(e *xdr.Encoder, h *CallHeader) {
	e.PutUint32(h.XID)
	e.PutUint32(Call)
	e.PutUint32(RPCVersion)
	e.PutUint32(h.Program)
	e.PutUint32(h.Version)
	e.PutUint32(h.Proc)
	e.PutUint32(h.Cred.Flavor)
	e.PutOpaque(h.Cred.Body)
	e.PutUint32(h.Verf.Flavor)
	e.PutOpaque(h.Verf.Body)
	e.PutFixedOpaque(h.Args)
}

// EncodeReply serializes an accepted reply message: header followed by
// results.
func EncodeReply(e *xdr.Encoder, h *ReplyHeader) {
	e.PutUint32(h.XID)
	e.PutUint32(Reply)
	e.PutUint32(h.ReplyStat)
	if h.ReplyStat == MsgAccepted {
		e.PutUint32(h.Verf.Flavor)
		e.PutOpaque(h.Verf.Body)
		e.PutUint32(h.AcceptStat)
		if h.AcceptStat == Success {
			e.PutFixedOpaque(h.Results)
		}
	} else {
		// Denied: rejected_reply with RPC_MISMATCH low/high. We encode
		// AUTH_ERROR(1) with a zero auth_stat, the common denial.
		e.PutUint32(1)
		e.PutUint32(0)
	}
}

// Decoded is the result of decoding one RPC message of either direction.
type Decoded struct {
	Type  uint32 // Call or Reply
	Call  *CallHeader
	Reply *ReplyHeader
}

// Decode parses one RPC message from a datagram or reassembled record.
// A message too short for its header is bare ErrNotRPC; a header field
// with an impossible value is ErrNotRPC wrapped with that value.
func Decode(b []byte) (*Decoded, error) {
	d := xdr.NewDecoder(b)
	m := &Decoded{}
	xid := d.Uint32()
	m.Type = d.Uint32()
	switch m.Type {
	case Call:
		h := &CallHeader{XID: xid}
		vers := d.Uint32()
		if vers != RPCVersion {
			d.Fail(fmt.Errorf("%w: rpc version %d", ErrNotRPC, vers))
		}
		h.Program = d.Uint32()
		h.Version = d.Uint32()
		h.Proc = d.Uint32()
		h.Cred = OpaqueAuth{Flavor: d.Uint32(), Body: d.Opaque()}
		h.Verf = OpaqueAuth{Flavor: d.Uint32(), Body: d.Opaque()}
		h.Args = b[d.Offset():]
		m.Call = h
	case Reply:
		h := &ReplyHeader{XID: xid, ReplyStat: d.Uint32()}
		if h.ReplyStat == MsgAccepted {
			h.Verf = OpaqueAuth{Flavor: d.Uint32(), Body: d.Opaque()}
			h.AcceptStat = d.Uint32()
			if h.AcceptStat == Success {
				h.Results = b[d.Offset():]
			}
		}
		m.Reply = h
	default:
		d.Fail(fmt.Errorf("%w: message type %d", ErrNotRPC, m.Type))
	}
	if err := d.Err(); err != nil {
		if !errors.Is(err, ErrNotRPC) {
			err = ErrNotRPC
		}
		return nil, err
	}
	return m, nil
}

// Record marking (RFC 1831 §10): each RPC message sent over TCP is
// carried as one or more fragments, each prefixed with a 4-byte header
// whose top bit marks the record's final fragment and whose low 31 bits
// give the fragment length. This is the one statement of that rule: the
// offline RecordScanner below and the live wire.RecordConn both use it.

// MaxRecordLen bounds a reassembled record (and so any one fragment),
// protecting a receiver from hostile or corrupt length prefixes.
const MaxRecordLen = 1 << 24

const lastFragment = 1 << 31

// AppendFragmentHeader appends the header of an n-byte fragment.
func AppendFragmentHeader(b []byte, n int, last bool) []byte {
	h := uint32(n)
	if last {
		h |= lastFragment
	}
	return binary.BigEndian.AppendUint32(b, h)
}

// ParseFragmentHeader decodes the 4-byte fragment header at the front of
// hdr for a record that already holds have bytes: the fragment's length
// and whether it ends the record. It fails when the fragment would take
// the record past MaxRecordLen.
func ParseFragmentHeader(hdr []byte, have int) (n int, last bool, err error) {
	h := binary.BigEndian.Uint32(hdr)
	n, last = int(h&^lastFragment), h&lastFragment != 0
	if have+n > MaxRecordLen {
		return 0, false, fmt.Errorf("rpc: record of %d bytes exceeds limit", have+n)
	}
	return n, last, nil
}

// MarkRecord frames msg as a single final record-marked fragment.
func MarkRecord(msg []byte) []byte {
	return append(AppendFragmentHeader(make([]byte, 0, 4+len(msg)), len(msg), true), msg...)
}

// MarkRecordFragmented frames msg as multiple record-marking fragments of
// at most fragSize bytes each, exercising the reassembly path.
func MarkRecordFragmented(msg []byte, fragSize int) []byte {
	if fragSize <= 0 {
		fragSize = len(msg)
	}
	var out []byte
	for off := 0; ; off += fragSize {
		end := min(off+fragSize, len(msg))
		last := end == len(msg)
		out = append(AppendFragmentHeader(out, end-off, last), msg[off:end]...)
		if last {
			return out
		}
	}
}

// RecordScanner incrementally extracts record-marked RPC messages from a
// reassembled TCP byte stream. Feed it stream bytes in order with Append;
// Next returns complete messages as they become available.
type RecordScanner struct {
	buf  []byte
	frag []byte // accumulated fragments of the current record
}

// Append adds stream bytes to the scanner.
func (s *RecordScanner) Append(b []byte) {
	s.buf = append(s.buf, b...)
}

// Pending reports the number of buffered, unconsumed stream bytes.
func (s *RecordScanner) Pending() int { return len(s.buf) }

// Next returns the next complete RPC message, or nil if more stream
// bytes are needed. It returns an error once the fragments of one record
// add up to more than MaxRecordLen — without that check a stream of
// non-final fragments would grow the record forever.
func (s *RecordScanner) Next() ([]byte, error) {
	for {
		if len(s.buf) < 4 {
			return nil, nil
		}
		n, last, err := ParseFragmentHeader(s.buf, len(s.frag))
		if err != nil {
			return nil, err
		}
		if len(s.buf) < 4+n {
			return nil, nil
		}
		s.frag = append(s.frag, s.buf[4:4+n]...)
		s.buf = s.buf[4+n:]
		if last {
			msg := s.frag
			s.frag = nil
			if msg == nil {
				msg = []byte{} // an empty record is a message, not "need more bytes"
			}
			return msg, nil
		}
	}
}
