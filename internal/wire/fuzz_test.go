package wire

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/rpc"
)

// FuzzRecordFraming runs the two RFC 1831 record-marking readers over
// the same stream: RecordConn reading it whole (into fresh slices, and
// again into one reused buffer), and rpc.RecordScanner
// fed slices whose sizes cycle through sizes, as TCP segments would
// arrive. They must deliver the same messages in the same order, and
// one reports a framing error exactly when the other does. A stream cut
// inside a record is not a framing error: RecordConn calls it
// io.ErrUnexpectedEOF and the scanner waits for more bytes.
func FuzzRecordFraming(f *testing.F) {
	call := []byte("one rpc call, eight-byte aligned..")
	f.Add(rpc.MarkRecord(call), []byte{3})
	f.Add(rpc.MarkRecordFragmented(call, 5), []byte{0, 7, 1})
	f.Add(append(rpc.MarkRecord(nil), rpc.MarkRecord(call)...), []byte{200})
	f.Add(append(rpc.MarkRecordFragmented(nil, 0), rpc.MarkRecord(call)[:9]...), []byte{1, 2})
	f.Add([]byte{0x7F, 0xFF, 0xFF, 0xFF}, []byte{0})

	f.Fuzz(func(t *testing.T, stream, sizes []byte) {
		var want [][]byte
		rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(stream), w: &bytes.Buffer{}})
		var connErr error
		for connErr == nil {
			var msg []byte
			if msg, connErr = rc.ReadRecord(); connErr == nil {
				want = append(want, msg)
			}
		}
		connFraming := connErr != io.EOF && connErr != io.ErrUnexpectedEOF

		// The same stream read through one reused buffer must give the
		// same records and end the same way.
		reuse := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(stream), w: &bytes.Buffer{}})
		var buf []byte
		for i := 0; ; i++ {
			msg, err := reuse.ReadRecordInto(buf)
			if err != nil {
				if err.Error() != connErr.Error() || i != len(want) {
					t.Fatalf("reused buffer ended with %v after %d records, RecordConn with %v after %d", err, i, connErr, len(want))
				}
				break
			}
			if i >= len(want) || !bytes.Equal(msg, want[i]) {
				t.Fatalf("reused buffer record %d: %x", i, msg)
			}
			buf = msg
		}

		var got [][]byte
		var sc rpc.RecordScanner
		var scanErr error
		for off, i := 0, 0; off < len(stream) && scanErr == nil; i++ {
			n := len(stream) - off
			if len(sizes) > 0 && int(sizes[i%len(sizes)])+1 < n {
				n = int(sizes[i%len(sizes)]) + 1
			}
			sc.Append(stream[off : off+n])
			off += n
			for {
				msg, err := sc.Next()
				if err != nil {
					scanErr = err
					break
				}
				if msg == nil {
					break
				}
				got = append(got, msg)
			}
		}
		if connFraming != (scanErr != nil) {
			t.Fatalf("RecordConn ended with %v, scanner with %v", connErr, scanErr)
		}
		if len(got) != len(want) {
			t.Fatalf("scanner delivered %d messages, RecordConn %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("message %d: scanner %x, RecordConn %x", i, got[i], want[i])
			}
		}
	})
}
