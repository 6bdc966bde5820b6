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

// DecodeAuthSys parses an AUTH_SYS credential body into a new
// AuthSysBody.
func DecodeAuthSys(body []byte) (*AuthSysBody, error) {
	a := new(AuthSysBody)
	if err := DecodeAuthSysInto(a, body); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeAuthSysInto parses an AUTH_SYS credential body into a,
// overwriting every field. It reuses a.GIDs' storage, and keeps
// a.MachineName when the body spells the same name, so a caller that
// decodes every credential into one AuthSysBody allocates only when a
// name changes or the group list outgrows what it held. A body with no
// groups leaves GIDs nil, as a fresh decode does. On error a's contents
// are unspecified.
func DecodeAuthSysInto(a *AuthSysBody, body []byte) error {
	d := xdr.NewDecoder(body)
	a.Stamp = d.Uint32()
	if name := d.Opaque(); string(name) != a.MachineName {
		a.MachineName = string(name)
	}
	a.UID, a.GID = d.Uint32(), d.Uint32()
	n := d.Count()
	gids := a.GIDs[:0]
	if n > 16 { // RFC 1831 limits auth_sys gids to 16
		d.Fail(fmt.Errorf("rpc: %d gids exceeds AUTH_SYS limit", n))
	} else {
		for i := 0; i < n; i++ {
			gids = append(gids, d.Uint32())
		}
	}
	if len(gids) == 0 {
		gids = nil
	}
	a.GIDs = gids
	return d.Err()
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
// Exactly one of Call and Reply is set, by Type.
type Decoded struct {
	Type  uint32 // Call or Reply
	Call  *CallHeader
	Reply *ReplyHeader
}

// Decode parses one RPC message from a datagram or reassembled record
// into a new Decoded. A message too short for its header is bare
// ErrNotRPC; a header field with an impossible value is ErrNotRPC
// wrapped with that value.
func Decode(b []byte) (*Decoded, error) {
	m := new(Decoded)
	if err := decode(m, nil, nil, b); err != nil {
		return nil, err
	}
	return m, nil
}

// Decoder decodes RPC messages into storage of its own, so a caller
// that decodes every message through one Decoder allocates nothing.
// The zero value is ready to use.
type Decoder struct {
	m     Decoded
	call  CallHeader
	reply ReplyHeader
}

// Decode parses one RPC message, failing as the package's Decode does.
// The Decoded and header it returns are the Decoder's, and the header's
// opaque bodies and Args or Results alias b: the next Decode overwrites
// all of it.
func (d *Decoder) Decode(b []byte) (*Decoded, error) {
	if err := decode(&d.m, &d.call, &d.reply, b); err != nil {
		return nil, err
	}
	return &d.m, nil
}

// decode parses one RPC message into m and the header of its direction,
// call or reply, overwriting every field; a nil header is allocated.
func decode(m *Decoded, call *CallHeader, reply *ReplyHeader, b []byte) error {
	d := xdr.NewDecoder(b)
	xid := d.Uint32()
	m.Type = d.Uint32()
	m.Call, m.Reply = nil, nil
	switch m.Type {
	case Call:
		h := call
		if h == nil {
			h = new(CallHeader)
		}
		*h = CallHeader{XID: xid}
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
		h := reply
		if h == nil {
			h = new(ReplyHeader)
		}
		*h = ReplyHeader{XID: xid, ReplyStat: d.Uint32()}
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
		return err
	}
	return nil
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
//
// A message Next returns stays valid for good: later calls never write
// over it. A record of one fragment, the common case, is a slice of the
// scanner's stream buffer, which Append only ever writes past; when the
// buffer is full, Append moves the unread bytes to a new one and leaves
// the old one to the messages that point into it. Only the fragments of
// a multi-fragment record are gathered into a buffer of their own.
type RecordScanner struct {
	buf  []byte
	frag []byte // accumulated fragments of the current record
}

// minScanBuf is the least stream buffer Append allocates: room for
// several segments at the jumbo MTU, so a buffer is made every few
// segments rather than for each.
const minScanBuf = 32 << 10

// Append adds stream bytes to the scanner.
func (s *RecordScanner) Append(b []byte) {
	if need := len(s.buf) + len(b); need > cap(s.buf) {
		nb := make([]byte, len(s.buf), max(2*need, minScanBuf))
		copy(nb, s.buf)
		s.buf = nb
	}
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
		body := s.buf[4 : 4+n : 4+n]
		s.buf = s.buf[4+n:]
		if last && s.frag == nil {
			return body, nil // never nil: an empty record is a message, not "need more bytes"
		}
		s.frag = append(s.frag, body...)
		if last {
			msg := s.frag
			s.frag = nil
			return msg, nil
		}
	}
}
