package wire

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// fragment builds one IPv4 fragment of a UDP datagram from server to
// client: data is the IP payload at byte offset off (for off 0 it must
// begin with the UDP header).
func fragment(id uint16, off int, more bool, data []byte) []byte {
	totalIP := IPv4HeaderLen + len(data)
	buf := make([]byte, EthernetHeaderLen+totalIP)
	buildEthernet(buf, serverIP, clientIP)
	buildIPv4(buf[EthernetHeaderLen:], serverIP, clientIP, ProtoUDP, id, uint16(off), more, totalIP)
	copy(buf[EthernetHeaderLen+IPv4HeaderLen:], data)
	return buf
}

// udpDatagram is a UDP header for ports 2049 → 700 followed by payload.
func udpDatagram(payload []byte) []byte {
	d := make([]byte, UDPHeaderLen+len(payload))
	binary.BigEndian.PutUint16(d[0:2], 2049)
	binary.BigEndian.PutUint16(d[2:4], 700)
	binary.BigEndian.PutUint16(d[4:6], uint16(len(d)))
	copy(d[UDPHeaderLen:], payload)
	return d
}

func mustDecode(t *testing.T, b []byte) *Frame {
	t.Helper()
	f, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// TestDefragOverlapDoesNotHideHole: the second fragment overlaps the
// first completely, so the bytes [1488, 2960) never arrive. Adding up
// chunk lengths counts the overlap twice and would "complete" the
// datagram with a 1472-byte hole of zeros.
func TestDefragOverlapDoesNotHideHole(t *testing.T) {
	d := udpDatagram(patterned(3052))
	df := NewDefragmenter()
	for _, fr := range []struct {
		start, end int
		more       bool
	}{{0, 1488, true}, {8, 1488, true}, {2960, 3060, false}} {
		if got := df.Add(mustDecode(t, fragment(9, fr.start, fr.more, d[fr.start:fr.end]))); got != nil {
			t.Fatalf("fragment [%d,%d) completed a datagram with a hole: %d payload bytes", fr.start, fr.end, len(got.Payload))
		}
	}
	if df.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", df.Pending())
	}
	got := df.Add(mustDecode(t, fragment(9, 1488, true, d[1488:2960])))
	if got == nil || !bytes.Equal(got.Payload, d[UDPHeaderLen:]) {
		t.Fatal("filling the hole did not complete the datagram byte-exactly")
	}
}

// TestDefragLaterOverlapWins: where fragments overlap, the bytes that
// arrived last are the ones reassembled, whatever the offsets.
func TestDefragLaterOverlapWins(t *testing.T) {
	d := udpDatagram(patterned(2000))
	other := bytes.Repeat([]byte{0xEE}, 800)
	df := NewDefragmenter()
	df.Add(mustDecode(t, fragment(3, 1000, false, d[1000:])))
	df.Add(mustDecode(t, fragment(3, 400, true, other)))
	got := df.Add(mustDecode(t, fragment(3, 0, true, d[:800])))
	if got == nil {
		t.Fatal("datagram never completed")
	}
	want := append(append(append([]byte{}, d[:800]...), other[400:]...), d[1200:]...)
	if !bytes.Equal(got.Payload, want[UDPHeaderLen:]) {
		t.Fatal("overlapping bytes are not the last arrival's")
	}
}

// TestDefragCopiesFragments feeds every fragment from one reused packet
// buffer, as a pcap reader that reuses its read buffer does.
func TestDefragCopiesFragments(t *testing.T) {
	payload := patterned(8192)
	frames := FragmentUDP(serverIP, clientIP, 2049, 1023, 99, payload, StandardMTU)
	df := NewDefragmenter()
	var buf []byte
	var f Frame
	var result *Frame
	for i, raw := range frames {
		buf = append(buf[:0], raw...)
		if err := DecodeInto(&f, buf); err != nil {
			t.Fatal(err)
		}
		if got := df.Add(&f); got != nil {
			result = got
		}
		for j := range buf {
			buf[j] = byte(i) // the reader's next packet overwrites the buffer
		}
	}
	if result == nil || !bytes.Equal(result.Payload, payload) {
		t.Fatal("reassembly kept references into the caller's packet bytes")
	}
	if result.SrcPort != 2049 || result.DstPort != 1023 || result.UDPLen != UDPHeaderLen+8192 {
		t.Fatalf("header: ports %d→%d, length %d", result.SrcPort, result.DstPort, result.UDPLen)
	}

	// The returned datagram is the caller's: the next one does not touch it.
	next := FragmentUDP(serverIP, clientIP, 2049, 1023, 100, patterned(5000)[1:], StandardMTU)
	for _, raw := range next {
		df.Add(mustDecode(t, raw))
	}
	if !bytes.Equal(result.Payload, payload) {
		t.Fatal("a later reassembly wrote into a datagram already handed out")
	}
}

// TestReassembleRewritesInPlace: Reassemble turns the completing
// fragment into the datagram, and passes unfragmented frames through.
func TestReassembleRewritesInPlace(t *testing.T) {
	payload := patterned(4000)
	frames := FragmentUDP(serverIP, clientIP, 2049, 700, 5, payload, StandardMTU)
	df := NewDefragmenter()
	for i := len(frames) - 1; i >= 0; i-- {
		f := mustDecode(t, frames[i])
		whole := df.Reassemble(f)
		if whole != (i == 0) {
			t.Fatalf("fragment %d: whole = %v", i, whole)
		}
		if whole && (f.IsFragment || f.SrcPort != 2049 || !bytes.Equal(f.Payload, payload)) {
			t.Fatalf("reassembled frame: %+v", f)
		}
	}
	single := mustDecode(t, BuildUDP(clientIP, serverIP, 1, 2, 3, []byte("x")))
	if !df.Reassemble(single) || string(single.Payload) != "x" {
		t.Fatal("unfragmented frame not passed through")
	}
}

// TestDefragCapsPendingReassemblies: datagrams that each lost their
// last fragment are dropped oldest first once the cap is reached.
func TestDefragCapsPendingReassemblies(t *testing.T) {
	df := NewDefragmenter()
	payload := patterned(3000)
	for i := 0; i < 10000; i++ {
		frames := FragmentUDP(serverIP, clientIP, 2049, 700, uint16(i), payload, StandardMTU)
		for _, raw := range frames[:len(frames)-1] {
			if df.Add(mustDecode(t, raw)) != nil {
				t.Fatal("completed without its last fragment")
			}
		}
	}
	if df.Pending() > maxReassemblies {
		t.Fatalf("pending = %d, want ≤ %d", df.Pending(), maxReassemblies)
	}
	if got := int64(df.Pending()) + df.Dropped(); got != 10000 {
		t.Fatalf("pending + dropped = %d, want 10000", got)
	}
	// The newest datagram is still open and completes; the oldest is gone.
	last := FragmentUDP(serverIP, clientIP, 2049, 700, 9999, payload, StandardMTU)
	if got := df.Add(mustDecode(t, last[len(last)-1])); got == nil || !bytes.Equal(got.Payload, payload) {
		t.Fatal("newest datagram did not complete")
	}
	first := FragmentUDP(serverIP, clientIP, 2049, 700, 0, payload, StandardMTU)
	if df.Add(mustDecode(t, first[len(first)-1])) != nil {
		t.Fatal("oldest datagram was still held")
	}
	if open := df.Pending(); df.Evict() != open || df.Pending() != 0 {
		t.Fatalf("evict left %d of %d pending", df.Pending(), open)
	}
}

// TestDefragReusedIPIDRestarts: a second first fragment under the same
// key starts a new datagram instead of merging the old one's pieces.
func TestDefragReusedIPIDRestarts(t *testing.T) {
	old := udpDatagram(patterned(4000))
	df := NewDefragmenter()
	df.Add(mustDecode(t, fragment(11, 0, true, old[:1480])))
	df.Add(mustDecode(t, fragment(11, 2960, false, old[2960:]))) // middle lost

	// The IPID wraps around and a shorter datagram reuses it: its two
	// fragments, with the old last fragment's bytes still beyond them.
	d := udpDatagram(bytes.Repeat([]byte{0x5A}, 2000))
	if df.Add(mustDecode(t, fragment(11, 0, true, d[:1480]))) != nil {
		t.Fatal("restarted datagram completed from the old pieces")
	}
	if df.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", df.Dropped())
	}
	got := df.Add(mustDecode(t, fragment(11, 1480, false, d[1480:])))
	if got == nil || !bytes.Equal(got.Payload, d[UDPHeaderLen:]) {
		t.Fatal("reused IPID did not reassemble the new datagram alone")
	}
	if df.Pending() != 0 {
		t.Fatalf("pending = %d", df.Pending())
	}
}

// TestDecodeIntoResetsFrame: decoding into a used Frame leaves nothing
// of the previous packet behind, and Decode agrees with DecodeInto.
func TestDecodeIntoResetsFrame(t *testing.T) {
	tcp := BuildTCP(clientIP, serverIP, 800, 2049, 7, 1000, 2000, FlagPSH|FlagACK, []byte("rpc"))
	udp := BuildUDP(clientIP, serverIP, 1023, 2049, 42, []byte("nfs"))
	var f Frame
	if err := DecodeInto(&f, tcp); err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(&f, udp); err != nil {
		t.Fatal(err)
	}
	want := mustDecode(t, udp)
	if f.Seq != 0 || f.Flags != 0 || f.UDPLen != UDPHeaderLen+3 || f.Flow() != want.Flow() ||
		!bytes.Equal(f.Payload, want.Payload) || f.UDPLen != want.UDPLen {
		t.Fatalf("reused frame %+v, fresh %+v", f, *want)
	}
	if err := DecodeInto(&f, udp[:5]); err == nil || f.Proto != 0 {
		t.Fatalf("truncated frame: err %v, frame %+v", err, f)
	}
}

// TestDecodeTotalLengthBelowHeader: an IP total length shorter than the
// header it follows is truncation, not a slice-bounds panic.
func TestDecodeTotalLengthBelowHeader(t *testing.T) {
	frame := BuildUDP(clientIP, serverIP, 1, 2, 3, []byte("hello"))
	binary.BigEndian.PutUint16(frame[EthernetHeaderLen+2:], IPv4HeaderLen-4)
	if _, err := Decode(frame); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// reassembleAll feeds frames to df in the given order through
// Reassemble and returns the frame that completed the datagram.
func reassembleAll(t *testing.T, df *Defragmenter, frames [][]byte, order []int) *Frame {
	t.Helper()
	for n, i := range order {
		f := mustDecode(t, frames[i])
		if whole := df.Reassemble(f); whole != (n == len(order)-1) {
			t.Fatalf("fragment %d (%d of %d): whole = %v", i, n+1, len(order), whole)
		}
		if n == len(order)-1 {
			return f
		}
	}
	return nil
}

func inOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// TestDefragRecycle: a recycled datagram's buffer carries the next
// datagram, and none of its bytes survive into it. The shorter second
// datagram's fragments arrive last first, so the buffer holds the old
// datagram's bytes ahead of every fragment until the first one lands.
// Recycling anything but the datagram completed last changes nothing.
func TestDefragRecycle(t *testing.T) {
	long := patterned(8192)
	df := NewDefragmenter()
	frames := FragmentUDP(serverIP, clientIP, 2049, 700, 1, long, StandardMTU)
	f := reassembleAll(t, df, frames, inOrder(len(frames)))
	if !bytes.Equal(f.Payload, long) {
		t.Fatal("first datagram reassembled wrong")
	}
	buf := &f.Payload[0]
	df.Recycle(f)

	short := bytes.Repeat([]byte{0xEE}, 3000)
	frames = FragmentUDP(serverIP, clientIP, 2049, 701, 2, short, StandardMTU)
	order := inOrder(len(frames))
	slices.Reverse(order)
	g := reassembleAll(t, df, frames, order)
	if !bytes.Equal(g.Payload, short) || g.DstPort != 701 || g.UDPLen != UDPHeaderLen+3000 {
		t.Fatalf("second datagram: %d bytes to port %d, length %d; want exactly its own 3000 bytes",
			len(g.Payload), g.DstPort, g.UDPLen)
	}
	if &g.Payload[0] != buf {
		t.Fatal("the recycled buffer was not reused")
	}

	// Neither a copy of the datagram nor an unfragmented frame hands it
	// back: the next datagram must leave it alone.
	held := append([]byte(nil), g.Payload...)
	df.Recycle(&Frame{Payload: held})
	df.Recycle(mustDecode(t, BuildUDP(clientIP, serverIP, 1, 2, 3, []byte("x"))))
	frames = FragmentUDP(serverIP, clientIP, 2049, 702, 3, patterned(5000), StandardMTU)
	reassembleAll(t, df, frames, inOrder(len(frames)))
	if !bytes.Equal(g.Payload, short) {
		t.Fatal("a datagram never recycled was overwritten")
	}
}

// TestDefragRecycleAllocations: a caller that recycles every datagram
// reassembles the next one of the same size without allocating.
func TestDefragRecycleAllocations(t *testing.T) {
	frames := FragmentUDP(serverIP, clientIP, 2049, 700, 1, patterned(8192), StandardMTU)
	decoded := make([]Frame, len(frames))
	df := NewDefragmenter()
	allocs := testing.AllocsPerRun(50, func() {
		for i, raw := range frames {
			f := &decoded[i]
			if err := DecodeInto(f, raw); err != nil {
				t.Fatal(err)
			}
			if df.Reassemble(f) {
				df.Recycle(f)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per recycled datagram, want 0", allocs)
	}
}
