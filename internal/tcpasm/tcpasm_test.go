package tcpasm

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/rpc"
	"repro/internal/wire"
)

func seg(seq uint32, payload []byte, flags uint8) *wire.Frame {
	return &wire.Frame{
		SrcIP: wire.IP{10, 0, 0, 5}, DstIP: wire.IP{10, 0, 0, 1},
		Proto: wire.ProtoTCP, SrcPort: 900, DstPort: 2049,
		Seq: seq, Flags: flags, Payload: payload,
	}
}

// ack is a segment of the opposite direction acknowledging bytes below
// n, carrying no data.
func ack(n uint32) *wire.Frame {
	f := seg(0, nil, wire.FlagACK)
	f.SrcIP, f.DstIP, f.SrcPort, f.DstPort, f.Ack = f.DstIP, f.SrcIP, f.DstPort, f.SrcPort, n
	return f
}

// add feeds segments to a and returns the bytes they made contiguous.
func add(a *Assembler, fs ...*wire.Frame) []byte {
	var out []byte
	for _, f := range fs {
		data, _ := a.Add(f)
		out = append(out, data...)
	}
	return out
}

func TestInOrderStream(t *testing.T) {
	a := NewAssembler()
	if out, s := a.Add(seg(100, nil, wire.FlagSYN)); out != nil || s == nil {
		t.Fatalf("SYN produced %q, stream %v", out, s)
	}
	got := add(a, seg(101, []byte("hello "), wire.FlagACK), seg(107, []byte("world"), wire.FlagACK))
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	if flows, held := a.Held(); flows != 1 || held != 0 {
		t.Fatalf("flows=%d held=%d", flows, held)
	}
}

func TestOutOfOrderStream(t *testing.T) {
	a := NewAssembler()
	a.Add(seg(0, nil, wire.FlagSYN))
	if out := add(a, seg(7, []byte("world"), 0)); out != nil {
		t.Fatalf("out-of-order segment emitted %q", out)
	}
	if _, held := a.Held(); held != 5 {
		t.Fatalf("held = %d", held)
	}
	if out := add(a, seg(1, []byte("hello "), 0)); string(out) != "hello world" {
		t.Fatalf("got %q", out)
	}
	if _, held := a.Held(); held != 0 {
		t.Fatal("held bytes leaked")
	}
}

func TestRetransmissionIgnored(t *testing.T) {
	a := NewAssembler()
	a.Add(seg(0, nil, wire.FlagSYN))
	a.Add(seg(1, []byte("abcd"), 0))
	if out := add(a, seg(1, []byte("abcd"), 0)); out != nil {
		t.Fatalf("retransmission emitted %q", out)
	}
	// Partial overlap: seq 3 retransmits "cd" plus new "ef".
	if out := add(a, seg(3, []byte("cdef"), 0)); string(out) != "ef" {
		t.Fatalf("partial overlap emitted %q", out)
	}
}

func TestMidStreamSync(t *testing.T) {
	// Capture started after the connection: first data segment sets the
	// sequence base.
	if out := add(NewAssembler(), seg(5000, []byte("data"), wire.FlagACK)); string(out) != "data" {
		t.Fatalf("got %q", out)
	}
}

func TestSequenceWraparound(t *testing.T) {
	a := NewAssembler()
	base := uint32(0xFFFFFFF0)
	a.Add(seg(base, nil, wire.FlagSYN))
	out1 := add(a, seg(base+1, bytes.Repeat([]byte{1}, 20), 0)) // crosses wrap
	out2 := add(a, seg(base+21, []byte{2, 2}, 0))
	if len(out1) != 20 || len(out2) != 2 {
		t.Fatalf("wraparound: %d %d", len(out1), len(out2))
	}
}

func TestRandomizedReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Build a reference stream of 200 segments.
	var ref []byte
	var chunks []*wire.Frame
	seq := uint32(1)
	for i := 0; i < 200; i++ {
		n := rng.Intn(100) + 1
		data := make([]byte, n)
		rng.Read(data)
		chunks = append(chunks, seg(seq, data, 0))
		ref = append(ref, data...)
		seq += uint32(n)
	}
	// Shuffle within a window of 8 to mimic mild reordering.
	for i := range chunks {
		j := i + rng.Intn(8)
		if j < len(chunks) {
			chunks[i], chunks[j] = chunks[j], chunks[i]
		}
	}
	a := NewAssembler()
	a.Add(seg(0, nil, wire.FlagSYN))
	if got := add(a, chunks...); !bytes.Equal(got, ref) {
		t.Fatalf("reassembly mismatch: %d vs %d bytes", len(got), len(ref))
	}
}

// records reads every record s has complete.
func records(t *testing.T, s *Stream) []string {
	t.Helper()
	var got []string
	for {
		msg, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if msg == nil {
			return got
		}
		got = append(got, string(msg))
	}
}

// TestSkipGaps: a hole is skipped once the peer acknowledges bytes past
// its start, not before. The record complete ahead of the hole stays
// readable, the one open across it is lost, and framing restarts at the
// held segment.
func TestSkipGaps(t *testing.T) {
	one, two, three := rpc.MarkRecord([]byte("one")), rpc.MarkRecord([]byte("two")), rpc.MarkRecord([]byte("three"))
	first := append(append([]byte{}, one...), two[:4]...)
	a := NewAssembler()
	a.Add(seg(0, nil, wire.FlagSYN))
	a.Add(seg(1, first, 0))
	hole := 1 + uint32(len(first))
	after := hole + uint32(len(two)-4) // "two"'s body is lost
	if out := add(a, seg(after, three, 0)); out != nil {
		t.Fatal("hole emitted")
	}
	a.Ack(ack(hole))
	if _, held := a.Held(); held != len(three) {
		t.Fatalf("an ACK up to the hole left %d bytes held", held)
	}
	s := a.Ack(ack(hole + 1))
	if got := records(t, s); len(got) != 2 || got[0] != "one" || got[1] != "three" {
		t.Fatalf("records %q after the skip, want one and three", got)
	}
	// The stream continues after the skip.
	next := after + uint32(len(three))
	if got := add(a, seg(next, first, 0)); !bytes.Equal(got, first) {
		t.Fatalf("post-skip got %q", got)
	}
	// An ACK seen ahead of the data it acknowledges skips nothing when
	// nothing is held: the data still comes out when it arrives.
	rest := next + uint32(len(first))
	if a.Ack(ack(rest+3)) != nil {
		t.Fatal("an ACK past a direction that holds nothing reached its stream")
	}
	if got := add(a, seg(rest, two[4:], 0)); !bytes.Equal(got, two[4:]) {
		t.Fatalf("data behind its ACK got %q", got)
	}
	if got := records(t, s); len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("records %q, want one and two", got)
	}
	a.Add(seg(rest+10, []byte("x"), 0)) // past a hole
	noACK := ack(rest + 100)
	noACK.Flags = 0
	if a.Ack(noACK) != nil {
		t.Fatal("a segment without an ACK reached the other direction")
	}
}

// TestHeldIsCapped: with no ACK to skip a hole, a direction holds at
// most the caps, and the data behind the hole still comes out.
func TestHeldIsCapped(t *testing.T) {
	for _, size := range []int{1, 1000, 9000} {
		a := NewAssembler()
		a.Add(seg(0, nil, wire.FlagSYN))
		var out []byte
		for i := 0; i < 200; i++ {
			data, s := a.Add(seg(2+uint32(i*size), bytes.Repeat([]byte{byte(i)}, size), 0)) // byte 1 is lost
			out = append(out, data...)
			if len(s.held) > maxHeldSegments || s.heldBytes > MaxHeldBytes {
				t.Fatalf("size %d, segment %d: %d segments, %d bytes held", size, i, len(s.held), s.heldBytes)
			}
		}
		if len(out) != 200*size {
			t.Fatalf("size %d: %d bytes released, want all %d", size, len(out), 200*size)
		}
	}
}

func TestAssemblerRoutesFlows(t *testing.T) {
	a := NewAssembler()
	f1 := seg(1, []byte("x"), 0)
	f2 := seg(1, []byte("y"), 0)
	f2.SrcPort = 901 // different flow
	out1, s1 := a.Add(f1)
	out2, s2 := a.Add(f2)
	if s1 == s2 || s1.Flow != f1.Flow() || s2.Flow != f2.Flow() {
		t.Fatal("flows shared a stream")
	}
	if string(out1) != "x" || string(out2) != "y" {
		t.Fatalf("outputs %q %q", out1, out2)
	}
	if _, s := a.Add(ack(1)); s != nil {
		t.Fatal("a bare ACK opened a stream")
	}
	if flows, _ := a.Held(); flows != 2 {
		t.Fatalf("flows = %d", flows)
	}
	if _, s := a.Add(seg(2, []byte("z"), 0)); s != s1 {
		t.Fatal("a flow's next segment found another stream")
	}
}

// TestAssemblerForgetsClosedFlows: 1 000 short connections, each
// closed by a FIN per direction, leave no flow behind, whether the FIN
// is in order, comes ahead of the last data, or rides on it; an RST in
// sequence ends its direction the same way.
func TestAssemblerForgetsClosedFlows(t *testing.T) {
	a := NewAssembler()
	for i := 0; i < 1000; i++ {
		call := seg(0, nil, wire.FlagSYN)
		call.SrcPort = uint16(1000 + i)
		reply := ack(1)
		reply.DstPort = call.SrcPort
		reply.Seq, reply.Flags = 0, wire.FlagSYN|wire.FlagACK
		a.Add(call)
		a.Add(reply)
		data := func(f *wire.Frame, seq uint32, payload string, flags uint8) *wire.Frame {
			g := *f
			g.Seq, g.Payload, g.Flags = seq, []byte(payload), flags|wire.FlagACK
			return &g
		}
		a.Add(data(call, 1, "call", 0))
		switch i % 3 {
		case 0:
			a.Add(data(reply, 1, "reply", 0))
			a.Add(data(reply, 6, "", wire.FlagFIN))
		case 1:
			a.Add(data(reply, 6, "", wire.FlagFIN))
			if flows, held := a.Held(); flows != 2 || held != 0 {
				t.Fatalf("a FIN ahead of the data: %d flows, %d bytes held", flows, held)
			}
			a.Add(data(reply, 1, "reply", 0))
		case 2:
			a.Add(data(reply, 1, "reply", wire.FlagRST))
		}
		a.Add(data(call, 5, "", wire.FlagFIN))
	}
	if flows, held := a.Held(); flows != 0 || held != 0 {
		t.Fatalf("%d flows, %d bytes held after every connection closed", flows, held)
	}
}
