package core

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ingestRecords builds a time-ordered record stream with the mix of
// shapes real traces have.
func ingestRecords(n int) []*Record {
	rng := rand.New(rand.NewSource(41))
	var records []*Record
	tm := 1000.0
	for i := 0; i < n; i++ {
		tm += rng.Float64() * 0.01
		records = append(records, randomRecord(rng, tm))
	}
	return records
}

// noisyText renders records as a text trace with comments and blank
// lines sprinkled in, as archived traces have.
func noisyText(records []*Record) []byte {
	var buf bytes.Buffer
	buf.WriteString("# trace header\n")
	for i, r := range records {
		if i%97 == 0 {
			buf.WriteString("\n# checkpoint\n")
		}
		buf.WriteString(r.Marshal())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func binaryTrace(t *testing.T, records []*Record) []byte {
	t.Helper()
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
	return buf.Bytes()
}

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// drain reads a source to its terminal error (io.EOF reported as nil).
func drain(src RecordSource) ([]*Record, error) {
	var out []*Record
	for {
		rec, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// requireSameStream asserts two ingest paths produced identical
// records and identical terminal errors.
func requireSameStream(t *testing.T, label string, wantRecs, gotRecs []*Record, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v vs serial %v", label, gotErr, wantErr)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("%s: %d records vs serial %d", label, len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if *gotRecs[i] != *wantRecs[i] {
			t.Fatalf("%s: record %d:\n got %+v\nwant %+v", label, i, gotRecs[i], wantRecs[i])
		}
	}
}

// requireReadAheadMatches opens data through the read-ahead and through
// the serial reader DetectSource picks, drains both, and requires the
// same records and the same terminal error. It returns the read-ahead,
// drained, for further checks.
func requireReadAheadMatches(t *testing.T, label string, data []byte) *ReadAhead {
	t.Helper()
	src, err := DetectSource(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: DetectSource: %v", label, err)
	}
	want, wantErr := drain(src)
	ra, err := NewReadAhead(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: NewReadAhead: %v", label, err)
	}
	got, gotErr := drain(ra)
	requireSameStream(t, label, want, got, wantErr, gotErr)
	return ra
}

// The Parallel tests hold the read-ahead, which decodes on a goroutine
// of its own, to the serial reader on streams many batches long.

func TestParallelTextMatchesSerial(t *testing.T) {
	requireReadAheadMatches(t, "text", noisyText(ingestRecords(5000)))
}

func TestParallelBinaryMatchesSerial(t *testing.T) {
	records := ingestRecords(3000)
	// Backwards time steps exercise the zigzag delta chain across
	// batch boundaries.
	records[100].Time = records[99].Time - 0.004
	records[2000].Time = records[1999].Time - 1.5
	requireReadAheadMatches(t, "binary", binaryTrace(t, records))
}

func TestParallelGzipTransparent(t *testing.T) {
	records := ingestRecords(800)
	text := noisyText(records)
	bin := binaryTrace(t, records)
	want, _ := drain(NewReader(bytes.NewReader(text)))
	wantBin, _ := drain(NewBinaryReader(bytes.NewReader(bin)))

	for _, tc := range []struct {
		name string
		data []byte
		want []*Record
	}{
		{"text.gz", gzipBytes(t, text), want},
		{"binary.gz", gzipBytes(t, bin), wantBin},
	} {
		ra, err := NewReadAhead(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, gotErr := drain(ra)
		requireSameStream(t, tc.name, tc.want, got, nil, gotErr)
	}
}

func TestParallelTextErrorMatchesSerial(t *testing.T) {
	records := ingestRecords(1000)
	var buf bytes.Buffer
	for i, r := range records {
		if i == 700 {
			buf.WriteString("1.0 C this line is garbage\n")
		}
		buf.WriteString(r.Marshal())
		buf.WriteByte('\n')
	}
	want, wantErr := drain(NewReader(bytes.NewReader(buf.Bytes())))
	if wantErr == nil || len(want) != 700 {
		t.Fatalf("serial reader: %d records, err %v", len(want), wantErr)
	}
	ra := requireReadAheadMatches(t, "text error", buf.Bytes())
	// The error is sticky.
	if _, err := ra.Next(); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestParallelBinaryTruncationErrors(t *testing.T) {
	data := binaryTrace(t, ingestRecords(50))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		// Payload cut mid-record.
		{"payload", data[:len(data)-3]},
		// A dangling varint continuation byte where the next record
		// length should be: must error, not silently stop.
		{"length varint", append(append([]byte{}, data...), 0x80)},
	} {
		if _, err := drain(NewBinaryReader(bytes.NewReader(tc.data))); err == nil {
			t.Fatalf("%s: serial reader silently accepted truncation", tc.name)
		}
		requireReadAheadMatches(t, tc.name, tc.data)
	}
}

// TestBinaryTruncatedLengthSurfaces is the regression test for the
// silent-EOF bug: a stream ending inside a record-length varint used
// to be reported as a clean end of trace.
func TestBinaryTruncatedLengthSurfaces(t *testing.T) {
	data := binaryTrace(t, ingestRecords(2))
	data = append(data, 0x83) // partial varint: promises more bytes
	br := NewBinaryReader(bytes.NewReader(data))
	var err error
	for i := 0; i < 3; i++ {
		if _, err = br.Next(); err != nil {
			break
		}
	}
	if err == nil || err == io.EOF {
		t.Fatalf("truncated length varint reported as %v, want an error", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF wrap", err)
	}
}

// errAfter yields data and then a non-EOF error, simulating a failing
// disk or pipe.
type errAfter struct {
	r   io.Reader
	err error
}

func (e *errAfter) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		return n, e.err
	}
	return n, err
}

// TestReaderSurfacesScannerErrors pins the serial Reader's error
// behavior: token-too-long and underlying read errors must surface,
// never read as a clean EOF.
func TestReaderSurfacesScannerErrors(t *testing.T) {
	good := ingestRecords(3)
	t.Run("token too long midstream", func(t *testing.T) {
		var buf bytes.Buffer
		for _, r := range good {
			buf.WriteString(r.Marshal())
			buf.WriteByte('\n')
		}
		buf.WriteString(strings.Repeat("x", 3<<20))
		buf.WriteString("\n")
		buf.WriteString(good[0].Marshal())
		buf.WriteString("\n")
		got, err := drain(NewReader(bytes.NewReader(buf.Bytes())))
		if len(got) != 3 {
			t.Fatalf("read %d records before the long line", len(got))
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("err = %v, want bufio.ErrTooLong", err)
		}
	})
	t.Run("scanner buffer boundary", func(t *testing.T) {
		// A final unterminated line of exactly maxLineBytes fails (the
		// scanner has no headroom left to attempt the read that would
		// report EOF); one byte shorter is read, and fails to parse.
		for _, n := range []int{maxLineBytes, maxLineBytes - 1} {
			_, err := drain(NewReader(strings.NewReader(strings.Repeat("x", n))))
			if tooLong := errors.Is(err, bufio.ErrTooLong); err == nil || tooLong != (n == maxLineBytes) {
				t.Fatalf("len=%d: err = %v", n, err)
			}
		}
	})
	t.Run("read error propagates", func(t *testing.T) {
		boom := errors.New("disk on fire")
		text := good[0].Marshal() + "\n" + good[1].Marshal() + "\n"
		got, err := drain(NewReader(&errAfter{r: strings.NewReader(text), err: boom}))
		if len(got) != 2 {
			t.Fatalf("read %d records before the failure", len(got))
		}
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the read error", err)
		}
	})
}

// TestReadAheadStop abandons a read-ahead mid-stream: Stop is
// idempotent, Next ends instead of hanging, and the decode goroutine
// exits.
func TestReadAheadStop(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ra, err := NewReadAhead(bytes.NewReader(noisyText(ingestRecords(20000))))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := ra.Next(); err != nil {
			t.Fatal(err)
		}
	}
	ra.Stop()
	ra.Stop() // idempotent
	// Next finishes the batch it is in, then ends.
	for n := 10; ; n++ {
		_, err := ra.Next()
		if err == ErrReaderStopped {
			break
		}
		if err != nil || n >= readAheadBatch {
			t.Fatalf("record %d after Stop: err %v", n, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, %d before the reader", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParallelEmptyAndTinyInputs(t *testing.T) {
	for _, data := range []string{"", "\n\n", "# nothing here\n", "zz"} {
		requireReadAheadMatches(t, fmt.Sprintf("%q", data), []byte(data))
	}
}

// TestReadAheadLiveFeed feeds the read-ahead through a pipe that stays
// open: every record written so far must come out of Next although the
// batch is far from full and the input has not ended, in each format.
func TestReadAheadLiveFeed(t *testing.T) {
	records := ingestRecords(30)
	text := noisyText(records)
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(text)
	if err := zw.Flush(); err != nil { // a sync block, not the stream's end
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"text", text},
		{"binary", binaryTrace(t, records)},
		{"gzip", zbuf.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The serial reader's records; the unclosed gzip stream
			// ends in an error after them.
			src, err := DetectSource(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := drain(src)
			if len(want) != len(records) {
				t.Fatalf("serial reader: %d records, want %d", len(want), len(records))
			}
			pr, pw := io.Pipe()
			go pw.Write(tc.data)
			ra, err := NewReadAhead(pr)
			if err != nil {
				t.Fatal(err)
			}
			got := make(chan *Record)
			go func() {
				for {
					rec, err := ra.Next()
					if err != nil {
						close(got)
						return
					}
					got <- rec
				}
			}()
			for i, want := range want {
				select {
				case rec, ok := <-got:
					if !ok {
						t.Fatalf("record %d: stream ended", i)
					}
					if *rec != *want {
						t.Fatalf("record %d:\n got %+v\nwant %+v", i, rec, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("record %d held back while the feed stays open", i)
				}
			}
			pw.Close()
			if _, ok := <-got; ok {
				t.Fatal("a record past the end of the feed")
			}
		})
	}
}
