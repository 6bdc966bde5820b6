package wire

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"

	"repro/internal/rpc"
)

// rwBuffer joins separate read and write buffers into an io.ReadWriter,
// standing in for the two directions of a socket.
type rwBuffer struct {
	r *bytes.Buffer
	w *bytes.Buffer
}

func (b *rwBuffer) Read(p []byte) (int, error)  { return b.r.Read(p) }
func (b *rwBuffer) Write(p []byte) (int, error) { return b.w.Write(p) }

func TestRecordConnRoundTrip(t *testing.T) {
	var wireBytes bytes.Buffer
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &wireBytes})
	msgs := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte("nfs"), 5000),
	}
	for _, m := range msgs {
		if err := send.WriteRecord(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := NewRecordConn(&rwBuffer{r: &wireBytes, w: &bytes.Buffer{}})
	for i, want := range msgs {
		got, err := recv.ReadRecord()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("msg %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := recv.ReadRecord(); err != io.EOF {
		t.Fatalf("expected EOF after last record, got %v", err)
	}
}

// TestRecordConnFragments checks interoperability with the offline
// record-marking encoder in internal/rpc: multi-fragment records
// reassemble to the original message.
func TestRecordConnFragments(t *testing.T) {
	msg := bytes.Repeat([]byte("fragmented rpc message "), 40)
	stream := rpc.MarkRecordFragmented(msg, 7)
	stream = append(stream, rpc.MarkRecord([]byte("tail"))...)
	rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(stream), w: &bytes.Buffer{}})
	got, err := rc.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(msg))
	}
	tail, err := rc.ReadRecord()
	if err != nil || string(tail) != "tail" {
		t.Fatalf("tail record: %q err %v", tail, err)
	}
}

// TestRecordConnSymmetry: what WriteRecord emits, rpc.RecordScanner
// parses — the live and offline framers agree byte for byte.
func TestRecordConnSymmetry(t *testing.T) {
	var wireBytes bytes.Buffer
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &wireBytes})
	msg := []byte("one rpc message")
	if err := send.WriteRecord(msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBytes.Bytes(), rpc.MarkRecord(msg)) {
		t.Fatal("WriteRecord framing differs from rpc.MarkRecord")
	}
	var sc rpc.RecordScanner
	sc.Append(wireBytes.Bytes())
	got, err := sc.Next()
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("scanner got %q err %v", got, err)
	}
}

// TestRecordConnTruncation pins the EOF taxonomy: a stream ending on a
// record boundary is a clean io.EOF, but a cut anywhere inside a record
// — mid-header, mid-body, or between fragments — is io.ErrUnexpectedEOF.
// A coordinator relies on this to tell an orderly shutdown from a
// worker that died mid-stream.
func TestRecordConnTruncation(t *testing.T) {
	full := rpc.MarkRecordFragmented(bytes.Repeat([]byte("payload "), 64), 33)
	cases := []struct {
		name string
		cut  int
		want error
	}{
		{"empty stream", 0, io.EOF},
		{"partial first header", 2, io.ErrUnexpectedEOF},
		{"partial fragment body", 4 + 10, io.ErrUnexpectedEOF},
		{"clean cut between fragments", 4 + 33, io.ErrUnexpectedEOF},
		{"partial second header", 4 + 33 + 2, io.ErrUnexpectedEOF},
		{"complete record", len(full), nil},
	}
	for _, tc := range cases {
		rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(full[:tc.cut]), w: &bytes.Buffer{}})
		_, err := rc.ReadRecord()
		if err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil {
			// After a complete record the boundary EOF must stay clean.
			if _, err := rc.ReadRecord(); err != io.EOF {
				t.Errorf("%s: post-record read: got %v, want io.EOF", tc.name, err)
			}
		}
	}
}

func TestRecordConnLimits(t *testing.T) {
	// A hostile length prefix must error, not allocate 2GB.
	evil := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(evil), w: &bytes.Buffer{}})
	if _, err := rc.ReadRecord(); err == nil {
		t.Fatal("oversized fragment accepted")
	}
	// Truncated fragment body → ErrUnexpectedEOF, not silent EOF.
	trunc := rpc.MarkRecord([]byte("full message"))[:8]
	rc = NewRecordConn(&rwBuffer{r: bytes.NewBuffer(trunc), w: &bytes.Buffer{}})
	if _, err := rc.ReadRecord(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated record: got %v, want ErrUnexpectedEOF", err)
	}
	// Oversized write rejected.
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &bytes.Buffer{}})
	if err := send.WriteRecord(make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

// TestRecordConnFullDuplex pins the documented reader-loop/writer split:
// on each end of a pipe one goroutine writes while another reads. Run
// under -race it fails if the two directions share any state (they once
// shared the 4-byte header buffer); without -race a clobbered header
// shows up as a record of the wrong length or content.
func TestRecordConnFullDuplex(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	const records = 2000
	msg := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i%97) }

	var wg sync.WaitGroup
	for _, c := range []*RecordConn{NewRecordConn(a), NewRecordConn(b)} {
		c := c
		wg.Add(2)
		// A failure closes the pipe so the other three goroutines error
		// out instead of blocking forever.
		fail := func(format string, args ...any) {
			t.Errorf(format, args...)
			a.Close()
			b.Close()
		}
		go func() {
			defer wg.Done()
			for i := 0; i < records; i++ {
				if err := c.WriteRecord(msg(i)); err != nil {
					fail("write %d: %v", i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < records; i++ {
				got, err := c.ReadRecord()
				if err != nil {
					fail("read %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, msg(i)) {
					fail("record %d: got %d bytes, want %d", i, len(got), len(msg(i)))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWriteRecordPartsMatchesWriteRecord: a record written as parts is
// byte for byte the record WriteRecord writes for the joined message,
// and the size bound applies to the sum.
func TestWriteRecordPartsMatchesWriteRecord(t *testing.T) {
	tag, payload := []byte{0x03}, bytes.Repeat([]byte("chunk"), 9000) // larger than the bufio buffer
	var joined, parts bytes.Buffer
	if err := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &joined}).WriteRecord(append(tag[:1:1], payload...)); err != nil {
		t.Fatal(err)
	}
	if err := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &parts}).WriteRecordParts(tag, nil, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joined.Bytes(), parts.Bytes()) {
		t.Fatal("WriteRecordParts framing differs from WriteRecord of the joined message")
	}
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &bytes.Buffer{}})
	if err := send.WriteRecordParts(tag, make([]byte, MaxRecordLen)); err == nil {
		t.Fatal("oversized parts accepted")
	}
}

// TestReadRecordAllocatesOnce pins the receive path's cost: a
// single-fragment record is read straight into the slice it is returned
// in — one allocation, no reassembly copy.
func TestReadRecordAllocatesOnce(t *testing.T) {
	const runs = 50
	one := rpc.MarkRecord(bytes.Repeat([]byte("payload "), 4096))
	rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(bytes.Repeat(one, runs+1)), w: &bytes.Buffer{}})
	allocs := testing.AllocsPerRun(runs, func() {
		if rec, err := rc.ReadRecord(); err != nil || len(rec) != 8*4096 {
			t.Fatalf("ReadRecord: %d bytes, err %v", len(rec), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("ReadRecord of a single-fragment record: %.1f allocations, want 1", allocs)
	}
}
