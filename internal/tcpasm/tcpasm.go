// Package tcpasm reassembles unidirectional TCP byte streams from
// decoded segments and frames each into RPC records, tolerating
// out-of-order arrival, retransmission, capture loss, and the segment
// coalescing the paper's tracing software had to handle (several RPC
// messages, or part of one, per TCP segment).
//
// A segment that arrives past a hole is held, in start order, until the
// hole fills. The hole is skipped as soon as the opposite direction
// acknowledges bytes past its start: the endpoint has them, so the
// capture missed them and no retransmission will come. The record open
// across the hole is lost, and framing restarts at the held segment.
// Only a hole with a segment held past it is skipped, so an ACK that a
// capture shows ahead of the data it acknowledges loses nothing. Input that carries no ACK is bounded by a cap of about one
// TCP window on what a direction holds. A direction is forgotten once
// its FIN or RST is in sequence.
package tcpasm

import (
	"sort"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// A direction holds at most about one TCP window behind a hole; past
// either cap it skips the hole without waiting for an ACK.
const (
	MaxHeldBytes    = 64 << 10
	maxHeldSegments = 64
)

// segment is a held segment: its start, a copy of its payload, and
// whether it ends the direction (FIN or RST).
type segment struct {
	seq  uint32
	data []byte
	last bool
}

// Stream reassembles one direction of one TCP connection and frames it
// into RPC records.
type Stream struct {
	// Flow is the direction the stream carries.
	Flow      wire.FlowKey
	nextSeq   uint32
	held      []segment // past a hole, sorted by start
	heldBytes int
	closed    bool // a FIN or RST is in sequence
	scan      rpc.RecordScanner
	ready     [][]byte // records completed ahead of a skipped hole
}

// seqLess reports a < b in 32-bit sequence space.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// add processes one segment and returns the bytes that became
// contiguous. In order, with nothing held, they are the payload itself.
func (s *Stream) add(f *wire.Frame) []byte {
	last := f.Flags&(wire.FlagFIN|wire.FlagRST) != 0
	switch {
	case f.Flags&wire.FlagSYN != 0:
		s.nextSeq = f.Seq + 1 // SYN consumes one sequence number
		return nil
	case f.Seq == s.nextSeq && len(s.held) == 0:
		s.nextSeq += uint32(len(f.Payload))
		s.closed = last
		s.scan.Append(f.Payload)
		return f.Payload
	case len(f.Payload) == 0 && !last:
		return nil
	}
	// Hold a copy (the frame buffer is reused), after any that start at
	// or before it; drain trims retransmitted bytes.
	i := sort.Search(len(s.held), func(i int) bool { return seqLess(f.Seq, s.held[i].seq) })
	s.held = append(s.held, segment{})
	copy(s.held[i+1:], s.held[i:])
	s.held[i] = segment{f.Seq, append([]byte(nil), f.Payload...), last}
	s.heldBytes += len(f.Payload)
	return s.drain(s.nextSeq)
}

// drain emits the held segments that continue the stream. The hole
// before the first one is skipped when the peer has acknowledged bytes
// past its start (ack), or when the direction holds more than a cap.
func (s *Stream) drain(ack uint32) []byte {
	var out []byte
	n := 0
	for ; n < len(s.held) && !s.closed; n++ {
		h := s.held[n]
		if seqLess(s.nextSeq, h.seq) {
			if !seqLess(s.nextSeq, ack) && s.heldBytes <= MaxHeldBytes && len(s.held)-n <= maxHeldSegments {
				break
			}
			s.skip(h.seq)
		}
		s.heldBytes -= len(h.data)
		if end := h.seq + uint32(len(h.data)); seqLess(s.nextSeq, end) {
			data := h.data[s.nextSeq-h.seq:]
			s.scan.Append(data)
			out = append(out, data...)
			s.nextSeq = end
		}
		s.closed = h.last
	}
	s.held = append(s.held[:0], s.held[n:]...)
	return out
}

// skip gives up the hole before seq. The records complete ahead of it
// stay readable; the one open across it is lost.
func (s *Stream) skip(seq uint32) {
	for {
		msg, err := s.scan.Next()
		if msg == nil || err != nil {
			break
		}
		s.ready = append(s.ready, msg)
	}
	s.scan = rpc.RecordScanner{}
	s.nextSeq = seq
}

// Next returns the stream's next complete RPC record, or nil when it
// needs more bytes. After an error framing is lost: the buffered bytes
// are dropped and framing restarts with the bytes that follow.
func (s *Stream) Next() ([]byte, error) {
	if len(s.ready) > 0 {
		msg := s.ready[0]
		s.ready = s.ready[1:]
		return msg, nil
	}
	msg, err := s.scan.Next()
	if err != nil {
		s.scan = rpc.RecordScanner{}
	}
	return msg, err
}

// Assembler is a capture's flow table: one Stream per direction of each
// TCP connection.
type Assembler struct {
	streams map[wire.FlowKey]*Stream
}

// NewAssembler returns an empty flow table.
func NewAssembler() *Assembler {
	return &Assembler{streams: make(map[wire.FlowKey]*Stream)}
}

// Add routes a segment to its direction's stream and returns the bytes
// that became contiguous, with the stream; Next returns its records. A
// segment without payload opens no stream unless it is a SYN, and the
// stream is nil then. A direction whose FIN or RST is in sequence is
// forgotten, and returned this once with its last bytes.
func (a *Assembler) Add(f *wire.Frame) ([]byte, *Stream) {
	key := f.Flow()
	s := a.streams[key]
	if s == nil {
		if len(f.Payload) == 0 && f.Flags&wire.FlagSYN == 0 {
			return nil, nil
		}
		s = &Stream{Flow: key, nextSeq: f.Seq} // a mid-stream capture syncs to the first segment
		a.streams[key] = s
	}
	return a.done(s, s.add(f))
}

// Ack hands f's acknowledgment to the opposite direction, which skips a
// hole the peer acknowledged past, and returns that direction's stream,
// nil when it holds nothing: an ACK seen ahead of the data it
// acknowledges skips nothing.
func (a *Assembler) Ack(f *wire.Frame) *Stream {
	s := a.streams[f.Flow().Reverse()]
	if s == nil || len(s.held) == 0 || f.Flags&wire.FlagACK == 0 {
		return nil
	}
	_, s = a.done(s, s.drain(f.Ack))
	return s
}

func (a *Assembler) done(s *Stream, data []byte) ([]byte, *Stream) {
	if s.closed {
		delete(a.streams, s.Flow)
	}
	return data, s
}

// Held reports the flow directions tracked and the payload bytes they
// hold behind holes.
func (a *Assembler) Held() (flows, bytes int) {
	for _, s := range a.streams {
		bytes += s.heldBytes
	}
	return len(a.streams), bytes
}
