package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randomRecord(rng *rand.Rand, t float64) *Record {
	// A handful of client hosts talking to one server, as real traces
	// have.
	r := &Record{
		Time: t, Kind: KindCall, Proto: ProtoTCP,
		Client: 0x0a010010 + uint32(rng.Intn(4)), Port: uint16(600 + rng.Intn(400)),
		Server: 0x0a010001, XID: rng.Uint32(),
		Version: 3, Proc: MustProc("read"),
		UID: uint32(rng.Intn(10000)), GID: uint32(rng.Intn(1000)),
	}
	switch rng.Intn(4) {
	case 0:
		r.Proc = MustProc("read")
		r.FH = InternFH("00000000000000aa")
		r.Offset = uint64(rng.Intn(1 << 20))
		r.Count = 8192
	case 1:
		r.Kind = KindReply
		r.Proc = MustProc("write")
		r.Status = uint32(rng.Intn(3))
		r.RCount = 8192
		r.Size = uint64(rng.Intn(1 << 22))
		r.PreSize, r.HasPre = uint64(rng.Intn(1<<22)), true
		r.Mtime = t - 0.5
	case 2:
		r.Proc = MustProc("lookup")
		r.FH = InternFH("0000000000000002")
		r.Name = "inbox.lock"
	case 3:
		r.Kind = KindReply
		r.Proc = MustProc("create")
		r.NewFH = InternFH("00000000000000ff")
		r.FileID = uint64(rng.Intn(100000))
		r.EOF = true
		r.SetSize, r.HasSet = 0, true
	}
	return r
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var records []*Record
	tm := 1000.0
	for i := 0; i < 2000; i++ {
		tm += rng.Float64() * 0.01
		records = append(records, randomRecord(rng, tm))
	}
	// Include a backwards time step (reordered capture).
	records[500].Time = records[499].Time - 0.004

	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, r := range records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 2000 {
		t.Fatalf("count %d", w.Count())
	}

	br := NewBinaryReader(&buf)
	for i, want := range records {
		got, err := br.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		// Times round to the microsecond.
		if d := got.Time - want.Time; d > 1e-6 || d < -1e-6 {
			t.Fatalf("record %d: time %v vs %v", i, got.Time, want.Time)
		}
		g, x := *got, *want
		g.Time, x.Time = 0, 0
		if d := g.Mtime - x.Mtime; d > 1e-6 || d < -1e-6 {
			t.Fatalf("record %d mtime drift", i)
		}
		g.Mtime, x.Mtime = 0, 0
		if g != x {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, g, x)
		}
	}
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewBinaryReader(&buf)
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("empty trace: %v", err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	br := NewBinaryReader(bytes.NewReader([]byte("NOTATRACE___")))
	if _, err := br.Next(); err != ErrBadTraceMagic {
		t.Fatalf("err = %v", err)
	}
	br = NewBinaryReader(bytes.NewReader([]byte{1, 2}))
	if _, err := br.Next(); err != ErrBadTraceMagic {
		t.Fatalf("short header: %v", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(sampleCall())
	w.Write(sampleReply())
	w.Flush()
	full := buf.Bytes()
	br := NewBinaryReader(bytes.NewReader(full[:len(full)-3]))
	if _, err := br.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := br.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// TestBinaryHugeStringLength: a string length prefix of 2^64-1 used to
// wrap negative in the bounds check and panic slicing the record; it is
// an overrun like any other.
func TestBinaryHugeStringLength(t *testing.T) {
	payload := []byte{0, 0, KindCall, ProtoUDP, 0, 0, 0, 0, 0}
	payload = binary.AppendUvarint(payload, math.MaxUint64) // procedure name length
	trace := append(binaryMagic[:], byte(len(payload)))
	br := NewBinaryReader(bytes.NewReader(append(trace, payload...)))
	if _, err := br.Next(); err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("huge string length: err = %v, want an overrun", err)
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var text, bin bytes.Buffer
	tw := NewWriter(&text)
	bw := NewBinaryWriter(&bin)
	tm := 0.0
	for i := 0; i < 5000; i++ {
		tm += rng.Float64() * 0.001
		r := randomRecord(rng, tm)
		tw.Write(r)
		bw.Write(r)
	}
	tw.Flush()
	bw.Flush()
	if bin.Len()*5 >= text.Len()*3 { // must be well under 60% of the text size
		t.Fatalf("binary %d bytes vs text %d: not compact enough", bin.Len(), text.Len())
	}
}

func TestMergerInterleavesSorted(t *testing.T) {
	mk := func(times ...float64) *SliceSource {
		var rs []*Record
		for _, tm := range times {
			r := sampleCall()
			r.Time = tm
			rs = append(rs, r)
		}
		return &SliceSource{Records: rs}
	}
	merged, err := MergeAll(
		mk(1, 4, 7, 10),
		mk(2, 3, 8),
		mk(),
		mk(5, 6, 9),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 10 {
		t.Fatalf("%d records", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Time > merged[i].Time {
			t.Fatalf("unsorted at %d", i)
		}
	}
	if merged[0].Time != 1 || merged[9].Time != 10 {
		t.Fatalf("ends: %v %v", merged[0].Time, merged[9].Time)
	}
}

func TestMergerAcrossFormats(t *testing.T) {
	// One text source, one binary source — the merger doesn't care.
	var text, bin bytes.Buffer
	tw := NewWriter(&text)
	bw := NewBinaryWriter(&bin)
	for i := 0; i < 10; i++ {
		r := sampleCall()
		r.Time = float64(i * 2) // even times
		tw.Write(r)
		r2 := sampleCall()
		r2.Time = float64(i*2 + 1) // odd times
		bw.Write(r2)
	}
	tw.Flush()
	bw.Flush()
	merged, err := MergeAll(NewReader(&text), NewBinaryReader(&bin))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 20 {
		t.Fatalf("%d records", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Time > merged[i].Time {
			t.Fatalf("unsorted at %d", i)
		}
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	r := sampleCall()
	w := NewBinaryWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Time += 0.0001
		if err := w.Write(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	r := sampleCall()
	for i := 0; i < 10000; i++ {
		r.Time += 0.0001
		w.Write(r)
	}
	w.Flush()
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	var br *BinaryReader
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			br = NewBinaryReader(bytes.NewReader(data))
		}
		if _, err := br.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTextRead(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	r := sampleCall()
	for i := 0; i < 10000; i++ {
		r.Time += 0.0001
		w.Write(r)
	}
	w.Flush()
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	var tr *Reader
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			tr = NewReader(bytes.NewReader(data))
		}
		if _, err := tr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
