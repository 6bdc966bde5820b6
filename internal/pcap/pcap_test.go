package pcap

import (
	"bytes"
	"encoding/binary"
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

// TestCopyIsByteIdentical: a capture read with a Reader and written back
// with a Writer is the same file, for every sub-second tick tried. The
// seconds are an epoch time for the microsecond format and a simulated
// clock, days long, for the nanosecond one, as nfsgen writes it: a
// float64 holds a time to the nanosecond only below about 10^6 s.
func TestCopyIsByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		nano  bool
		sec   uint32
		ticks uint32
	}{{false, 1003680000, 1e6}, {true, 86400, 1e9}} {
		var orig bytes.Buffer
		w, err := NewWriter(&orig, tc.nano)
		if err != nil {
			t.Fatal(err)
		}
		w.Flush()
		for i := uint32(0); i < 5000; i++ {
			sub := i * 7919 % tc.ticks
			if i == 0 {
				sub = tc.ticks - 1
			}
			orig.Write(binary.LittleEndian.AppendUint32(nil, tc.sec+i))
			orig.Write(binary.LittleEndian.AppendUint32(nil, sub))
			orig.Write([]byte{1, 0, 0, 0, 1, 0, 0, 0, byte(i)})
		}
		r, err := NewReader(bytes.NewReader(orig.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var cp bytes.Buffer
		if w, err = NewWriter(&cp, tc.nano); err != nil {
			t.Fatal(err)
		}
		for {
			p, err := r.Next()
			if err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if err := w.WritePacket(p.Time, p.Data); err != nil {
				t.Fatal(err)
			}
		}
		w.Flush()
		if !bytes.Equal(orig.Bytes(), cp.Bytes()) {
			t.Errorf("nano=%v: the copy differs from the original", tc.nano)
		}
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

// TestReadPacketContract pins what ReadPacket promises, not where it
// keeps a packet: every packet reads back byte for byte — packets that
// straddle a refill of the Reader's 64 KiB buffer, one larger than the
// buffer, and empty ones — whether read by ReadPacket or by Next, in any
// interleaving; a Next packet stays intact across later reads; and
// ReadPacket allocates nothing in steady state.
func TestReadPacketContract(t *testing.T) {
	sizes := []int{1500, 60, 9000, 0, 1500, 100 << 10, 0, 70}
	for i := 0; i < 80; i++ { // refills at offsets that drift
		sizes = append(sizes, []int{1514, 9014, 60, 590, 0}[i%5]+i)
	}
	body := func(i int) []byte {
		b := make([]byte, sizes[i])
		for j := range b {
			b[j] = byte(i*7 + j)
		}
		return b
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, true)
	for i := range sizes {
		w.WritePacket(float64(i)+0.5, body(i))
	}
	w.Flush()
	capture := buf.Bytes()

	check := func(how string, i int, p *Packet) {
		t.Helper()
		if !bytes.Equal(p.Data, body(i)) || p.Time != float64(i)+0.5 || p.OrigLen != sizes[i] {
			t.Fatalf("%s packet %d: %d bytes at %v, want %d at %v", how, i, len(p.Data), p.Time, sizes[i], float64(i)+0.5)
		}
	}
	// Each interleaving: ReadPacket only, Next only, and the two
	// alternating and in runs.
	for _, useNext := range []func(i int) bool{
		func(int) bool { return false },
		func(int) bool { return true },
		func(i int) bool { return i%2 == 1 },
		func(i int) bool { return i%7 < 3 },
	} {
		r, _ := NewReader(bytes.NewReader(capture))
		var p Packet
		kept := map[int]*Packet{}
		for i := range sizes {
			if useNext(i) {
				q, err := r.Next()
				if err != nil {
					t.Fatalf("Next packet %d: %v", i, err)
				}
				check("Next", i, q)
				kept[i] = q
				continue
			}
			if err := r.ReadPacket(&p); err != nil {
				t.Fatalf("ReadPacket packet %d: %v", i, err)
			}
			check("ReadPacket", i, &p)
		}
		if err := r.ReadPacket(&p); err != io.EOF {
			t.Fatalf("want EOF, got %v", err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("Next: want EOF, got %v", err)
		}
		for i, q := range kept {
			check("kept Next", i, q)
		}
	}

	// Steady state: past the first packets, reading one more — refills
	// included — allocates nothing.
	w.WritePacket(0, body(0)) // a pass of AllocsPerRun past the end would read EOF
	for i := 0; i < 400; i++ {
		w.WritePacket(float64(i), bytes.Repeat([]byte{byte(i)}, 1514))
	}
	w.Flush()
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	var p Packet
	for range sizes {
		r.ReadPacket(&p)
	}
	if allocs := testing.AllocsPerRun(300, func() {
		if err := r.ReadPacket(&p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadPacket: %v allocations per packet, want 0", allocs)
	}
}
