// Package wire encodes and decodes the network framing beneath NFS:
// Ethernet II frames, IPv4 headers, and UDP/TCP transport headers,
// including the 9000-byte jumbo frames the CAMPUS network used. The
// sniffer parses these layers off captured packets; the traffic
// generator builds them.
//
// Only the fields the tracer needs are modeled: addressing, lengths,
// protocol numbers, TCP sequence numbers and flags. IP fragmentation is
// supported on decode (fragments are flagged, and a Defragmenter
// reassembles them) because UDP NFS traffic on standard-MTU networks
// fragments heavily.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Link and transport constants.
const (
	EtherTypeIPv4 = 0x0800
	ProtoTCP      = 6
	ProtoUDP      = 17

	EthernetHeaderLen = 14
	IPv4HeaderLen     = 20
	UDPHeaderLen      = 8
	TCPHeaderLen      = 20

	// StandardMTU is the classic Ethernet payload limit; JumboMTU is
	// the 9000-byte jumbo frame payload used on the CAMPUS gigabit net.
	StandardMTU = 1500
	JumboMTU    = 9000
)

// ErrTruncated reports a frame too short for its claimed headers.
var ErrTruncated = errors.New("wire: truncated packet")

// MAC is a 6-byte Ethernet address.
type MAC [6]byte

// IP is a 4-byte IPv4 address.
type IP [4]byte

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IPFromUint32 builds an address from a host-order integer.
func IPFromUint32(v uint32) IP {
	return IP{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Uint32 returns the address as a host-order integer.
func (ip IP) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// TCP flag bits.
const (
	FlagFIN = 0x01
	FlagSYN = 0x02
	FlagRST = 0x04
	FlagPSH = 0x08
	FlagACK = 0x10
)

// Frame is a decoded packet: the layers beneath one NFS message (or one
// fragment of one).
type Frame struct {
	SrcMAC, DstMAC MAC
	SrcIP, DstIP   IP
	Proto          uint8 // ProtoTCP or ProtoUDP
	SrcPort        uint16
	DstPort        uint16

	// IP fragmentation state.
	IPID       uint16
	FragOffset uint16 // in bytes
	MoreFrags  bool
	IsFragment bool // FragOffset > 0 || MoreFrags

	// UDPLen is the UDP header's length field (header included), valid
	// when Proto == ProtoUDP and the frame is not a non-first fragment.
	// A first fragment's UDPLen sizes the reassembled datagram.
	UDPLen uint16

	// TCP state (valid when Proto == ProtoTCP).
	Seq   uint32
	Ack   uint32
	Flags uint8

	// Payload is the transport payload (for first fragments, includes
	// the UDP header's payload; for subsequent fragments, raw bytes).
	Payload []byte
}

// checksum computes the RFC 1071 internet checksum.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// BuildUDP assembles a full Ethernet+IPv4+UDP frame around payload.
func BuildUDP(src, dst IP, srcPort, dstPort uint16, ipid uint16, payload []byte) []byte {
	totalIP := IPv4HeaderLen + UDPHeaderLen + len(payload)
	buf := make([]byte, EthernetHeaderLen+totalIP)
	buildEthernet(buf, src, dst)
	buildIPv4(buf[EthernetHeaderLen:], src, dst, ProtoUDP, ipid, 0, false, totalIP)
	udp := buf[EthernetHeaderLen+IPv4HeaderLen:]
	binary.BigEndian.PutUint16(udp[0:2], srcPort)
	binary.BigEndian.PutUint16(udp[2:4], dstPort)
	binary.BigEndian.PutUint16(udp[4:6], uint16(UDPHeaderLen+len(payload)))
	// Checksum 0 = unset, permitted for UDP/IPv4 and common on NFS nets.
	copy(udp[UDPHeaderLen:], payload)
	return buf
}

// BuildTCP assembles a full Ethernet+IPv4+TCP frame around payload.
func BuildTCP(src, dst IP, srcPort, dstPort uint16, ipid uint16, seq, ack uint32, flags uint8, payload []byte) []byte {
	totalIP := IPv4HeaderLen + TCPHeaderLen + len(payload)
	buf := make([]byte, EthernetHeaderLen+totalIP)
	buildEthernet(buf, src, dst)
	buildIPv4(buf[EthernetHeaderLen:], src, dst, ProtoTCP, ipid, 0, false, totalIP)
	tcp := buf[EthernetHeaderLen+IPv4HeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:2], srcPort)
	binary.BigEndian.PutUint16(tcp[2:4], dstPort)
	binary.BigEndian.PutUint32(tcp[4:8], seq)
	binary.BigEndian.PutUint32(tcp[8:12], ack)
	tcp[12] = (TCPHeaderLen / 4) << 4 // data offset
	tcp[13] = flags
	binary.BigEndian.PutUint16(tcp[14:16], 65535) // window
	copy(tcp[TCPHeaderLen:], payload)
	return buf
}

// FragmentUDP builds one or more frames carrying payload as a UDP
// datagram fragmented to fit mtu bytes of IP packet per frame. With a
// large enough mtu it returns a single unfragmented frame.
func FragmentUDP(src, dst IP, srcPort, dstPort uint16, ipid uint16, payload []byte, mtu int) [][]byte {
	if mtu <= 0 {
		mtu = StandardMTU
	}
	datagram := make([]byte, UDPHeaderLen+len(payload))
	binary.BigEndian.PutUint16(datagram[0:2], srcPort)
	binary.BigEndian.PutUint16(datagram[2:4], dstPort)
	binary.BigEndian.PutUint16(datagram[4:6], uint16(len(datagram)))
	copy(datagram[UDPHeaderLen:], payload)

	maxData := mtu - IPv4HeaderLen
	maxData -= maxData % 8 // fragment offsets are in 8-byte units
	if len(datagram) <= maxData {
		return [][]byte{BuildUDP(src, dst, srcPort, dstPort, ipid, payload)}
	}
	var frames [][]byte
	for off := 0; off < len(datagram); off += maxData {
		end := off + maxData
		more := true
		if end >= len(datagram) {
			end = len(datagram)
			more = false
		}
		chunk := datagram[off:end]
		totalIP := IPv4HeaderLen + len(chunk)
		buf := make([]byte, EthernetHeaderLen+totalIP)
		buildEthernet(buf, src, dst)
		buildIPv4(buf[EthernetHeaderLen:], src, dst, ProtoUDP, ipid, uint16(off), more, totalIP)
		copy(buf[EthernetHeaderLen+IPv4HeaderLen:], chunk)
		frames = append(frames, buf)
	}
	return frames
}

func buildEthernet(buf []byte, src, dst IP) {
	// Derive stable MACs from the IPs; the tracer never uses them, but
	// real frames have them.
	copy(buf[0:6], []byte{0x02, 0, dst[0], dst[1], dst[2], dst[3]})
	copy(buf[6:12], []byte{0x02, 0, src[0], src[1], src[2], src[3]})
	binary.BigEndian.PutUint16(buf[12:14], EtherTypeIPv4)
}

func buildIPv4(buf []byte, src, dst IP, proto uint8, ipid uint16, fragOff uint16, more bool, totalLen int) {
	buf[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(buf[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(buf[4:6], ipid)
	frag := fragOff / 8
	if more {
		frag |= 0x2000 // MF
	}
	binary.BigEndian.PutUint16(buf[6:8], frag)
	buf[8] = 64 // TTL
	buf[9] = proto
	copy(buf[12:16], src[:])
	copy(buf[16:20], dst[:])
	binary.BigEndian.PutUint16(buf[10:12], 0)
	binary.BigEndian.PutUint16(buf[10:12], checksum(buf[:IPv4HeaderLen]))
}

// Decode parses an Ethernet frame down to its transport payload, into a
// Frame of its own.
func Decode(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses an Ethernet frame down to its transport payload into
// f, overwriting every field. f.Payload aliases b.
func DecodeInto(f *Frame, b []byte) error {
	*f = Frame{}
	if len(b) < EthernetHeaderLen {
		return ErrTruncated
	}
	copy(f.DstMAC[:], b[0:6])
	copy(f.SrcMAC[:], b[6:12])
	if binary.BigEndian.Uint16(b[12:14]) != EtherTypeIPv4 {
		return fmt.Errorf("wire: not IPv4 (ethertype %#04x)", binary.BigEndian.Uint16(b[12:14]))
	}
	ip := b[EthernetHeaderLen:]
	if len(ip) < IPv4HeaderLen {
		return ErrTruncated
	}
	if ip[0]>>4 != 4 {
		return fmt.Errorf("wire: IP version %d", ip[0]>>4)
	}
	ihl := int(ip[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(ip) < ihl {
		return ErrTruncated
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	if totalLen > len(ip) || totalLen < ihl {
		return ErrTruncated
	}
	f.IPID = binary.BigEndian.Uint16(ip[4:6])
	frag := binary.BigEndian.Uint16(ip[6:8])
	f.MoreFrags = frag&0x2000 != 0
	f.FragOffset = (frag & 0x1FFF) * 8
	f.IsFragment = f.MoreFrags || f.FragOffset > 0
	f.Proto = ip[9]
	copy(f.SrcIP[:], ip[12:16])
	copy(f.DstIP[:], ip[16:20])
	payload := ip[ihl:totalLen]

	if f.IsFragment && f.FragOffset > 0 {
		// Non-first fragment: no transport header to parse.
		f.Payload = payload
		return nil
	}

	switch f.Proto {
	case ProtoUDP:
		if len(payload) < UDPHeaderLen {
			return ErrTruncated
		}
		f.SrcPort = binary.BigEndian.Uint16(payload[0:2])
		f.DstPort = binary.BigEndian.Uint16(payload[2:4])
		f.UDPLen = binary.BigEndian.Uint16(payload[4:6])
		f.Payload = payload[UDPHeaderLen:]
	case ProtoTCP:
		if len(payload) < TCPHeaderLen {
			return ErrTruncated
		}
		f.SrcPort = binary.BigEndian.Uint16(payload[0:2])
		f.DstPort = binary.BigEndian.Uint16(payload[2:4])
		f.Seq = binary.BigEndian.Uint32(payload[4:8])
		f.Ack = binary.BigEndian.Uint32(payload[8:12])
		dataOff := int(payload[12]>>4) * 4
		if dataOff < TCPHeaderLen || len(payload) < dataOff {
			return ErrTruncated
		}
		f.Flags = payload[13]
		f.Payload = payload[dataOff:]
	default:
		return fmt.Errorf("wire: unsupported IP protocol %d", f.Proto)
	}
	return nil
}

// FlowKey identifies one direction of one transport flow.
type FlowKey struct {
	SrcIP, DstIP     IP
	SrcPort, DstPort uint16
	Proto            uint8
}

// Flow returns the frame's flow key.
func (f *Frame) Flow() FlowKey {
	return FlowKey{SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: f.Proto}
}

// Reverse returns the opposite direction's key.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// maxReassemblies caps the datagrams a Defragmenter holds open at once.
// A datagram that lost a fragment never completes; without a cap every
// such loss would be held for the rest of the capture, and a reused IPID
// could later merge its stale fragments into a new datagram. When the
// cap is reached the oldest open datagram is dropped. The generated
// EECS capture never holds more than one open; the rest is room for a
// busy mirror port's interleaving.
const maxReassemblies = 256

// fragKey identifies an in-progress IP reassembly.
type fragKey struct {
	src, dst IP
	id       uint16
	proto    uint8
}

// span is a covered byte range [start, end) of a datagram.
type span struct{ start, end int }

// reassembly is one datagram in progress. Fragments are copied into buf
// at their offsets on arrival, so the caller's packet bytes are never
// retained, and a byte that arrives twice keeps its later copy.
type reassembly struct {
	key       fragKey
	buf       []byte  // the datagram, UDP header included, by offset
	covered   []span  // sorted, disjoint, non-touching ranges of buf
	spans     [8]span // covered's first storage
	haveFirst bool
	haveLast  bool
	end       int    // datagram length, once the last fragment is in
	seq       uint64 // order of creation, to drop the oldest at the cap
}

// grow extends buf to at least need bytes and returns it. A new backing
// array gets capacity for hint bytes if that is more.
func (r *reassembly) grow(need, hint int) []byte {
	if need > cap(r.buf) {
		b := make([]byte, need, max(need, hint))
		copy(b, r.buf)
		r.buf = b
	}
	if need > len(r.buf) {
		r.buf = r.buf[:need]
	}
	return r.buf
}

// cover records [start, end) as received, merging it with the ranges it
// overlaps or touches.
func (r *reassembly) cover(start, end int) {
	if start >= end {
		return
	}
	c := r.covered
	i := 0
	for i < len(c) && c[i].end < start {
		i++
	}
	j := i
	for j < len(c) && c[j].start <= end {
		start, end = min(start, c[j].start), max(end, c[j].end)
		j++
	}
	if i == j {
		c = append(c, span{})
		copy(c[i+1:], c[i:])
	} else {
		c = append(c[:i+1], c[j:]...)
	}
	c[i] = span{start, end}
	r.covered = c
}

// complete reports whether every byte of the datagram has arrived.
func (r *reassembly) complete() bool {
	return r.haveLast && len(r.covered) > 0 && r.covered[0].start == 0 && r.covered[0].end >= r.end
}

// Defragmenter reassembles fragmented IPv4 datagrams. Feed it every
// decoded fragment; it hands back the datagram when the last missing
// piece arrives. At most maxReassemblies datagrams are open at once.
//
// A completed datagram's buffer is the caller's until the caller hands
// it back with Recycle; the next datagram to open then reuses that
// buffer and its bookkeeping instead of allocating and zeroing new
// ones. A caller that never recycles, like Add's, keeps every payload.
type Defragmenter struct {
	pending map[fragKey]*reassembly
	opened  uint64
	dropped int64
	out     *reassembly // the last datagram completed, until recycled
	spare   *reassembly // a recycled datagram, for the next open
}

// NewDefragmenter returns an empty reassembler.
func NewDefragmenter() *Defragmenter {
	return &Defragmenter{pending: make(map[fragKey]*reassembly)}
}

// Pending reports the number of incomplete datagrams held.
func (df *Defragmenter) Pending() int { return len(df.pending) }

// Dropped reports the incomplete datagrams given up so far: restarted by
// a second first fragment under the same key, or dropped oldest first
// to stay within the cap. Evict's datagrams are not counted.
func (df *Defragmenter) Dropped() int64 { return df.dropped }

// Add processes one frame. Unfragmented frames are returned unchanged.
// Fragments are copied and buffered; when all pieces of a datagram have
// arrived a new Frame holding it is returned (with transport header
// parsed), else nil. The returned Frame and its Payload belong to the
// caller.
func (df *Defragmenter) Add(f *Frame) *Frame {
	if !f.IsFragment {
		return f
	}
	out := *f
	if !df.Reassemble(&out) {
		return nil
	}
	return &out
}

// Reassemble is Add without a new Frame: it copies fragment f into its
// datagram and reports whether f is now a whole datagram. A fragment
// that completes one is rewritten in place as the reassembled datagram,
// whose Payload then belongs to the caller until it hands it back with
// Recycle; an unfragmented frame is whole already.
func (df *Defragmenter) Reassemble(f *Frame) bool {
	if !f.IsFragment {
		return true
	}
	key := fragKey{src: f.SrcIP, dst: f.DstIP, id: f.IPID, proto: f.Proto}
	r := df.pending[key]
	if r != nil && f.FragOffset == 0 && r.haveFirst {
		// A second first fragment: the IPID has been reused, so what is
		// held belongs to an older datagram.
		df.drop(r)
		r = nil
	}
	if r == nil {
		r = df.open(key)
	}
	start := int(f.FragOffset)
	var end int
	if start == 0 {
		// First fragment: restore the UDP header so reassembly yields
		// the original datagram. (TCP is never fragmented by our nets.)
		r.haveFirst = true
		end = UDPHeaderLen + len(f.Payload)
		b := r.grow(end, int(f.UDPLen))
		binary.BigEndian.PutUint16(b[0:2], f.SrcPort)
		binary.BigEndian.PutUint16(b[2:4], f.DstPort)
		binary.BigEndian.PutUint16(b[4:6], f.UDPLen)
		binary.BigEndian.PutUint16(b[6:8], 0)
		copy(b[UDPHeaderLen:], f.Payload)
	} else {
		end = start + len(f.Payload)
		copy(r.grow(end, 0)[start:], f.Payload)
	}
	r.cover(start, end)
	if !f.MoreFrags {
		r.haveLast, r.end = true, end
	}
	if !r.complete() {
		return false
	}
	delete(df.pending, key)
	df.out = r
	d := r.buf[:r.end]
	f.IsFragment, f.MoreFrags, f.FragOffset = false, false, 0
	f.SrcPort = binary.BigEndian.Uint16(d[0:2])
	f.DstPort = binary.BigEndian.Uint16(d[2:4])
	f.UDPLen = binary.BigEndian.Uint16(d[4:6])
	f.Payload = d[UDPHeaderLen:]
	return true
}

// open starts a reassembly for key, first dropping the oldest one if
// the cap is reached. The scan for it runs only at the cap, that is
// only after fragments were lost.
func (df *Defragmenter) open(key fragKey) *reassembly {
	if len(df.pending) >= maxReassemblies {
		var oldest *reassembly
		for _, r := range df.pending {
			if oldest == nil || r.seq < oldest.seq {
				oldest = r
			}
		}
		df.drop(oldest)
	}
	df.opened++
	r := df.spare
	if r != nil {
		df.spare = nil
		*r = reassembly{key: key, buf: r.buf[:0], covered: r.covered[:0], seq: df.opened}
	} else {
		r = &reassembly{key: key, seq: df.opened}
		r.covered = r.spans[:0]
	}
	df.pending[key] = r
	return r
}

// Recycle hands back a datagram Reassemble completed, once the caller
// is done with f.Payload and anything that aliases it: the next
// datagram to open reuses its buffer. Only the datagram completed last
// is taken back; any other frame, whole or not, is left alone, so a
// caller may recycle every frame it handled. The buffer is reused
// as it is: no byte of it reaches a later datagram, since a datagram
// completes only once fragments have overwritten every byte of it.
func (df *Defragmenter) Recycle(f *Frame) {
	r := df.out
	if r == nil || !sameSlice(f.Payload, r.buf[UDPHeaderLen:r.end]) {
		return
	}
	df.out, df.spare = nil, r
}

// sameSlice reports whether a and b are the same slice of the same
// array.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && cap(a) == cap(b) && (len(a) == 0 || &a[0] == &b[0])
}

// drop gives up on an incomplete datagram.
func (df *Defragmenter) drop(r *reassembly) {
	delete(df.pending, r.key)
	df.dropped++
}

// Evict drops all pending reassemblies, modeling timeout of lost
// fragments, and reports how many datagrams were abandoned.
func (df *Defragmenter) Evict() int {
	n := len(df.pending)
	df.pending = make(map[fragKey]*reassembly)
	return n
}
