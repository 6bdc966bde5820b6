package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// burstTrace builds a trace of bursts of overlapping operations: each
// burst issues all its calls before any reply, so the trace is quiet
// only between bursts. XIDs are unique, so a record's key names one
// operation.
func burstTrace(bursts, width int) []*core.Record {
	var recs []*core.Record
	t, xid := 1.0, uint32(100)
	for b := 0; b < bursts; b++ {
		for k := 0; k < width; k++ {
			t += 0.001
			recs = append(recs, &core.Record{Time: t, Kind: core.KindCall,
				Client: 0x0a000005 + uint32(k%2), Port: 700, Server: 0x0a000001, Proto: core.ProtoUDP,
				XID: xid + uint32(k), Version: 3, Proc: core.MustProc("read"),
				FH: core.InternFH(fmt.Sprintf("%016x", b)), Offset: uint64(k) * 8192, Count: 8192})
		}
		for k := width - 1; k >= 0; k-- {
			t += 0.001
			recs = append(recs, &core.Record{Time: t, Kind: core.KindReply,
				Client: 0x0a000005 + uint32(k%2), Port: 700, Server: 0x0a000001, Proto: core.ProtoUDP,
				XID: xid + uint32(k), Version: 3, Proc: core.MustProc("read"), RCount: 8192, Size: 1 << 20})
		}
		xid += uint32(width)
	}
	return recs
}

func writeTrace(t *testing.T, path string, recs []*core.Record, binary bool) {
	t.Helper()
	var buf bytes.Buffer
	w := core.NewFormatWriter(&buf, binary)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// textOf renders the records a trace file holds in the text format,
// which is what tracesplit writes its pieces in.
func textOf(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := core.DetectSource(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := core.NewWriter(&buf)
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readPieces returns the contents of every piece under prefix, in
// order, decompressing gzip pieces.
func readPieces(t *testing.T, prefix string, gz bool) [][]byte {
	t.Helper()
	ext := ".trace"
	if gz {
		ext += ".gz"
	}
	var pieces [][]byte
	for i := 0; ; i++ {
		data, err := os.ReadFile(fmt.Sprintf("%s-%03d%s", prefix, i, ext))
		if os.IsNotExist(err) {
			return pieces
		}
		if err != nil {
			t.Fatal(err)
		}
		if gz {
			zr, err := gzip.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if data, err = io.ReadAll(zr); err != nil {
				t.Fatal(err)
			}
		}
		pieces = append(pieces, data)
	}
}

// TestSplitConcatenatesToInput cuts text, binary and gzip-output runs
// into 1, 3 and 8 pieces: the pieces must concatenate to the input's
// text, and every reply must sit in its call's piece.
func TestSplitConcatenatesToInput(t *testing.T) {
	recs := burstTrace(40, 5)
	dir := t.TempDir()
	text, bin := filepath.Join(dir, "in.trace"), filepath.Join(dir, "in.bin")
	writeTrace(t, text, recs, false)
	writeTrace(t, bin, recs, true)
	for _, in := range []struct {
		name, path string
		gz         bool
	}{{"text", text, false}, {"binary", bin, false}, {"gzip", text, true}} {
		want := textOf(t, in.path)
		for _, n := range []int{1, 3, 8} {
			prefix := filepath.Join(dir, fmt.Sprintf("%s-%d", in.name, n), "piece")
			args := []string{"-n", fmt.Sprint(n), "-o", prefix, in.path}
			if in.gz {
				args = append([]string{"-gzip"}, args...)
			}
			var stderr bytes.Buffer
			if err := run(args, &stderr); err != nil {
				t.Fatalf("%s n=%d: %v", in.name, n, err)
			}
			pieces := readPieces(t, prefix, in.gz)
			if len(pieces) != n {
				t.Fatalf("%s n=%d: %d pieces", in.name, n, len(pieces))
			}
			if !strings.Contains(stderr.String(), fmt.Sprintf("%d records into %d pieces", len(recs), n)) {
				t.Errorf("%s n=%d: report %q", in.name, n, stderr.String())
			}
			if got := bytes.Join(pieces, nil); !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: pieces concatenate to %d bytes, input is %d", in.name, n, len(got), len(want))
			}
			assertRepliesWithCalls(t, pieces)
		}
	}
}

// assertRepliesWithCalls fails if any reply lands in a later piece than
// its call.
func assertRepliesWithCalls(t *testing.T, pieces [][]byte) {
	t.Helper()
	callPiece := make(map[pendingKey]int)
	for i, p := range pieces {
		src := core.NewReader(bytes.NewReader(p))
		for {
			rec, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			k := pendingKey{rec.Client, rec.Port, rec.XID}
			if rec.Kind == core.KindCall {
				callPiece[k] = i
			} else if c, ok := callPiece[k]; !ok || c != i {
				t.Fatalf("reply xid %d in piece %d, its call in piece %d (seen %v)", rec.XID, i, c, ok)
			}
		}
	}
}

// TestSplitNeverQuiet gives a trace whose first call is never answered:
// no cut is quiescent, so tracesplit writes one piece and says so.
func TestSplitNeverQuiet(t *testing.T) {
	recs := burstTrace(20, 3)
	lost := *recs[0]
	lost.XID = 1
	recs = append([]*core.Record{&lost}, recs...)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.trace")
	writeTrace(t, in, recs, false)
	prefix := filepath.Join(dir, "piece")
	var stderr bytes.Buffer
	if err := run([]string{"-n", "4", "-o", prefix, in}, &stderr); err != nil {
		t.Fatal(err)
	}
	if got := len(readPieces(t, prefix, false)); got != 1 {
		t.Fatalf("%d pieces from a trace that never goes quiet", got)
	}
	if !strings.Contains(stderr.String(), "into 1 pieces") {
		t.Errorf("report %q", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.trace")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "0", "x"}, "-n must be at least 1"},
		{nil, "exactly one input"},
		{[]string{"a", "b"}, "exactly one input"},
		{[]string{"-bogus", "x"}, "flag provided but not defined"},
		{[]string{filepath.Join(dir, "missing.trace")}, "no such file"},
		{[]string{"-o", filepath.Join(dir, "p"), empty}, "no records"},
	} {
		var stderr bytes.Buffer
		err := run(tc.args, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
