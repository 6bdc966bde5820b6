package pcap

import (
	"bytes"
	"io"
	"testing"
)

func TestRoundTripMicro(t *testing.T) { testRoundTrip(t, false) }
func TestRoundTripNano(t *testing.T)  { testRoundTrip(t, true) }

func testRoundTrip(t *testing.T, nano bool) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, nano)
	if err != nil {
		t.Fatal(err)
	}
	packets := []struct {
		t    float64
		data []byte
	}{
		{1003680000.000001, []byte{1, 2, 3}},
		{1003680000.5, bytes.Repeat([]byte{0xAA}, 1500)},
		{1003680001.25, bytes.Repeat([]byte{0xBB}, 9000)}, // jumbo
	}
	for _, p := range packets {
		if err := w.WritePacket(p.t, p.data); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeEthernet {
		t.Fatalf("link type %d", r.LinkType())
	}
	if r.Nano() != nano {
		t.Fatalf("nano = %v", r.Nano())
	}
	for i, want := range packets {
		p, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(p.Data, want.data) {
			t.Fatalf("packet %d: %d bytes, want %d", i, len(p.Data), len(want.data))
		}
		tol := 2e-6
		if nano {
			tol = 2e-9
		}
		if diff := p.Time - want.t; diff > tol || diff < -tol {
			t.Fatalf("packet %d: time %v, want %v", i, p.Time, want.t)
		}
		if p.OrigLen != len(want.data) {
			t.Fatalf("packet %d: origlen %d", i, p.OrigLen)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(bytes.Repeat([]byte{0x42}, 24))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestTruncatedPacketBody(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	w.WritePacket(1, []byte{1, 2, 3, 4})
	w.Flush()
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestTruncatedTrailerHeaderIsEOF(t *testing.T) {
	// A file cut mid-packet-header should read as a clean EOF (the
	// capture host crashed or the disk filled — common with long traces).
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	w.WritePacket(1, []byte{1, 2, 3, 4})
	w.Flush()
	full := buf.Bytes()
	r, _ := NewReader(bytes.NewReader(append(append([]byte{}, full...), 0, 0, 0)))
	if _, err := r.Next(); err != nil {
		t.Fatalf("first packet: %v", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	w.Flush()
	// Hand-craft a packet header claiming a giant capture length.
	hdr := make([]byte, 16)
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xFF, 0xFF, 0xFF, 0x7F
	buf.Write(hdr)
	r, _ := NewReader(&buf)
	if _, err := r.Next(); err == nil {
		t.Fatal("implausible length accepted")
	}
}

// TestReadPacketReusesBuffer: ReadPacket reads every body into the one
// buffer the Reader keeps, growing it only for a larger packet, while
// Next hands out storage of the packet's own.
func TestReadPacketReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, true)
	bodies := [][]byte{
		bytes.Repeat([]byte{1}, 1500), bytes.Repeat([]byte{2}, 60),
		bytes.Repeat([]byte{3}, 9000), bytes.Repeat([]byte{4}, 1500), {},
	}
	for i, b := range bodies {
		w.WritePacket(float64(i)+0.5, b)
	}
	w.Flush()
	capture := buf.Bytes()

	r, _ := NewReader(bytes.NewReader(capture))
	var p Packet
	var first *byte
	for i, want := range bodies {
		if err := r.ReadPacket(&p); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(p.Data, want) || p.Time != float64(i)+0.5 || p.OrigLen != len(want) {
			t.Fatalf("packet %d: %d bytes at %v", i, len(p.Data), p.Time)
		}
		switch {
		case i == 0:
			first = &p.Data[:1][0]
		case i == 1 && &p.Data[:1][0] != first:
			t.Fatal("a smaller packet did not reuse the read buffer")
		}
	}
	if err := r.ReadPacket(&p); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	// Reading 200 more packets costs no allocation beyond the reader's own.
	for i := 0; i < 200; i++ {
		w.WritePacket(float64(i), bodies[0])
	}
	w.Flush()
	passAllocs := func(capture []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			r, _ := NewReader(bytes.NewReader(capture))
			for r.ReadPacket(&p) == nil {
			}
		})
	}
	if short, long := passAllocs(capture), passAllocs(buf.Bytes()); long > short {
		t.Errorf("%v allocations per pass of %d packets, %v of %d", long, len(bodies)+200, short, len(bodies))
	}

	r, _ = NewReader(bytes.NewReader(capture))
	var kept []*Packet
	for {
		q, err := r.Next()
		if err != nil {
			break
		}
		kept = append(kept, q)
	}
	for i, q := range kept {
		if !bytes.Equal(q.Data, bodies[i]) {
			t.Fatalf("Next packet %d changed after later reads", i)
		}
	}
}
