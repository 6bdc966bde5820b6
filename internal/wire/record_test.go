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

// vectored makes a stream a BuffersWriter, as package sock makes a
// net.Conn one, writing the buffers one after another and counting the
// calls.
type vectored struct {
	io.ReadWriter
	calls int
}

func (v *vectored) WriteBuffers(bufs [][]byte) (int64, error) {
	v.calls++
	var n int64
	for _, b := range bufs {
		m, err := v.Write(b)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestRecordConnFullDuplex pins the documented reader-loop/writer split:
// on each end of a pipe one goroutine writes while another reads. Run
// under -race it fails if the two directions share any state (they once
// shared the 4-byte header buffer); without -race a clobbered header
// shows up as a record of the wrong length or content. The 32k case
// sends records larger than the write buffer through WriteBuffers, as
// on a socket; the readers reuse one buffer.
func TestRecordConnFullDuplex(t *testing.T) {
	cases := []struct {
		name    string
		records int
		msg     func(int) []byte
	}{
		{"small", 2000, func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i%97) }},
		{"32k", 300, func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 32<<10+i%97) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			var wg sync.WaitGroup
			for _, end := range []net.Conn{a, b} {
				c := NewRecordConn(&vectored{ReadWriter: end})
				wg.Add(2)
				// A failure closes the pipe so the other three goroutines
				// error out instead of blocking forever.
				fail := func(format string, args ...any) {
					t.Errorf(format, args...)
					a.Close()
					b.Close()
				}
				go func() {
					defer wg.Done()
					for i := 0; i < tc.records; i++ {
						if err := c.WriteRecord(tc.msg(i)); err != nil {
							fail("write %d: %v", i, err)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					var buf []byte
					for i := 0; i < tc.records; i++ {
						got, err := c.ReadRecordInto(buf)
						if err != nil {
							fail("read %d: %v", i, err)
							return
						}
						if !bytes.Equal(got, tc.msg(i)) {
							fail("record %d: got %d bytes, want %d", i, len(got), len(tc.msg(i)))
							return
						}
						buf = got
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestWriteRecordPartsMatchesWriteRecord: a record written as parts is
// byte for byte the record WriteRecord writes for the joined message,
// whether it goes through the write buffer or, on a BuffersWriter and
// larger than the buffer, out in one WriteBuffers call; records of both
// kinds interleave in order. The size bound applies to the sum.
func TestWriteRecordPartsMatchesWriteRecord(t *testing.T) {
	var want []byte
	large := 0
	for _, parts := range partsRecords {
		msg := bytes.Join(parts, nil)
		want = append(want, rpc.MarkRecord(msg)...)
		if 4+len(msg) > 4096 {
			large++
		}
	}
	for _, vector := range []bool{false, true} {
		var got bytes.Buffer
		var stream io.ReadWriter = &rwBuffer{r: &bytes.Buffer{}, w: &got}
		vec := &vectored{ReadWriter: stream}
		if vector {
			stream = vec
		}
		rc := NewRecordConn(stream)
		for _, parts := range partsRecords {
			if err := rc.WriteRecordParts(parts...); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("BuffersWriter %v: WriteRecordParts framing differs from WriteRecord of the joined messages", vector)
		}
		if vector && vec.calls != large {
			t.Errorf("%d WriteBuffers calls, want one per record past the buffer (%d)", vec.calls, large)
		}
	}
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &bytes.Buffer{}})
	if err := send.WriteRecordParts([]byte{0x03}, make([]byte, MaxRecordLen)); err == nil {
		t.Fatal("oversized parts accepted")
	}
}

// partsRecords are records as parts, around the 4 KiB write buffer.
var partsRecords = [][][]byte{
	{{0x03}, nil, bytes.Repeat([]byte("chunk"), 9000)}, // tag + payload, past the buffer
	{[]byte("x")},
	{bytes.Repeat([]byte{'a'}, 3000), bytes.Repeat([]byte{'b'}, 3000)}, // past the buffer only in sum
	{bytes.Repeat([]byte{'c'}, 4092)},                                  // header + body fill the buffer exactly
	{bytes.Repeat([]byte{'d'}, 4093)},                                  // one byte over
	{},                                                                 // empty record
	{bytes.Repeat([]byte{'e'}, 100), {}, bytes.Repeat([]byte{'f'}, 40000)},
	{bytes.Repeat([]byte{'g'}, 17)},
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

// TestReadRecordIntoReusesBuffer: a record that fits the caller's buffer
// is read into it without allocating, fragmented or not.
func TestReadRecordIntoReusesBuffer(t *testing.T) {
	const runs = 50
	one := rpc.MarkRecord(bytes.Repeat([]byte("payload "), 4096))
	frag := rpc.MarkRecordFragmented(bytes.Repeat([]byte("fragment"), 4096), 1000)
	for name, rec := range map[string][]byte{"single": one, "fragmented": frag} {
		rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(bytes.Repeat(rec, runs+1)), w: &bytes.Buffer{}})
		buf := make([]byte, 0, 64<<10)
		allocs := testing.AllocsPerRun(runs, func() {
			got, err := rc.ReadRecordInto(buf)
			if err != nil || len(got) != 8*4096 {
				t.Fatalf("%s: ReadRecordInto: %d bytes, err %v", name, len(got), err)
			}
			if &got[0] != &buf[:1][0] {
				t.Fatalf("%s: record not read into the caller's buffer", name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ReadRecordInto with room to spare: %.1f allocations, want 0", name, allocs)
		}
	}
}

// TestReadRecordIntoFragments reassembles multi-fragment records of
// different contents, one after another, into one reused buffer.
func TestReadRecordIntoFragments(t *testing.T) {
	msgs := [][]byte{
		bytes.Repeat([]byte("first record "), 300),
		bytes.Repeat([]byte("second, shorter "), 20),
		bytes.Repeat([]byte("third grows past the buffer "), 400),
		[]byte("tail"),
	}
	var stream []byte
	for i, m := range msgs {
		stream = append(stream, rpc.MarkRecordFragmented(m, 7+i*100)...)
	}
	rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(stream), w: &bytes.Buffer{}})
	buf := make([]byte, 0, 8<<10)
	for i, want := range msgs {
		got, err := rc.ReadRecordInto(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: reassembled %q..., want %q...", i, got[:min(len(got), 20)], want[:min(len(want), 20)])
		}
		if fits := len(want) <= cap(buf); fits != (&got[0] == &buf[:1][0]) {
			t.Fatalf("record %d (%d bytes, buffer %d): read into the buffer = %v", i, len(want), cap(buf), !fits)
		}
		buf = got
	}
}

// TestReadRecordIntoCutAfterReuse: a record cut short after the buffer
// held a complete one is io.ErrUnexpectedEOF with no record returned,
// so none of the earlier record's bytes can pass for the new one.
func TestReadRecordIntoCutAfterReuse(t *testing.T) {
	first := rpc.MarkRecord(bytes.Repeat([]byte("A"), 500))
	second := rpc.MarkRecordFragmented(bytes.Repeat([]byte("B"), 400), 100)
	for _, cut := range []int{2, 4, 4 + 50, 4 + 100, 4 + 100 + 2, len(second) - 1} {
		stream := append(append([]byte{}, first...), second[:cut]...)
		rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(stream), w: &bytes.Buffer{}})
		buf, err := rc.ReadRecordInto(make([]byte, 0, 1024))
		if err != nil {
			t.Fatal(err)
		}
		got, err := rc.ReadRecordInto(buf)
		if err != io.ErrUnexpectedEOF || got != nil {
			t.Errorf("cut at %d: got %d bytes, err %v; want nil, io.ErrUnexpectedEOF", cut, len(got), err)
		}
	}
}

// TestReadRecordEmptyIsNonNil: an empty record is a message, never the
// nil that would read as "no record".
func TestReadRecordEmptyIsNonNil(t *testing.T) {
	stream := bytes.Repeat(rpc.MarkRecord(nil), 3)
	rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(stream), w: &bytes.Buffer{}})
	for i, read := range []func() ([]byte, error){
		rc.ReadRecord,
		func() ([]byte, error) { return rc.ReadRecordInto(nil) },
		func() ([]byte, error) { return rc.ReadRecordInto(make([]byte, 0, 16)) },
	} {
		got, err := read()
		if err != nil || got == nil || len(got) != 0 {
			t.Errorf("read %d: %v (nil %v), err %v; want an empty non-nil record", i, got, got == nil, err)
		}
	}
}

// TestRecycle: a record buffer is kept for the next record up to
// MaxReuse and dropped past it.
func TestRecycle(t *testing.T) {
	if b := Recycle(make([]byte, 10, MaxReuse)); b == nil || len(b) != 0 || cap(b) != MaxReuse {
		t.Errorf("buffer at the cap: len %d cap %d, want kept and emptied", len(b), cap(b))
	}
	if b := Recycle(make([]byte, 10, MaxReuse+1)); b != nil {
		t.Errorf("buffer past the cap kept (cap %d)", cap(b))
	}
}

// failWriter fails every write, buffered or vectored.
type failWriter struct{}

func (failWriter) Read([]byte) (int, error)             { return 0, io.EOF }
func (failWriter) Write([]byte) (int, error)            { return 0, io.ErrClosedPipe }
func (failWriter) WriteBuffers([][]byte) (int64, error) { return 0, io.ErrClosedPipe }

// TestWriteRecordAfterFailure: once a write failed, every later record,
// small or large, reports the failure rather than going out behind the
// lost bytes.
func TestWriteRecordAfterFailure(t *testing.T) {
	c := NewRecordConn(failWriter{})
	for i, msg := range [][]byte{[]byte("small"), make([]byte, 64<<10), []byte("small again")} {
		if err := c.WriteRecord(msg); err != io.ErrClosedPipe {
			t.Errorf("record %d (%d bytes): err %v, want io.ErrClosedPipe", i, len(msg), err)
		}
	}
}
