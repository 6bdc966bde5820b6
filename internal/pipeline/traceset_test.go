package pipeline

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/core"
)

func setRecords(n int, seed int64, start float64) []*core.Record {
	rng := rand.New(rand.NewSource(seed))
	var records []*core.Record
	tm := start
	for i := 0; i < n; i++ {
		tm += rng.Float64() * 0.01
		records = append(records, &core.Record{
			Time: tm, Kind: core.KindCall, Proto: core.ProtoUDP,
			Client: 0x0a000005, Port: 800, Server: 0x0a000001,
			XID: rng.Uint32(), Version: 3, Proc: core.MustProc("read"),
			FH: core.InternFH("00000000000000aa"), Offset: uint64(i) * 8192, Count: 8192,
		})
	}
	return records
}

func writeTextFile(t *testing.T, path string, records []*core.Record, gz bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteAll(&buf, records); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if gz {
		var zbuf bytes.Buffer
		zw := gzip.NewWriter(&zbuf)
		zw.Write(data)
		zw.Close()
		data = zbuf.Bytes()
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestExpandInputs(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("# empty\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mk("a.trace")
	b := mk("b.trace")
	mk(".hidden")
	sub := filepath.Join(dir, "sub")
	os.Mkdir(sub, 0o755)
	c := filepath.Join(sub, "c.trace")
	os.WriteFile(c, []byte("# empty\n"), 0o644)

	got, err := ExpandInputs([]string{filepath.Join(dir, "*.trace")})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("glob: %v", got)
	}

	// A directory contributes its visible files, sorted; the
	// subdirectory and dotfile are skipped.
	got, err = ExpandInputs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("dir: %v", got)
	}

	got, err = ExpandInputs([]string{a, sub})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != c {
		t.Fatalf("mixed: %v", got)
	}

	if _, err := ExpandInputs([]string{filepath.Join(dir, "*.nope")}); err == nil {
		t.Fatal("unmatched glob accepted")
	}
	if _, err := ExpandInputs([]string{filepath.Join(dir, "missing.trace")}); err == nil {
		t.Fatal("missing file accepted")
	}
	empty := filepath.Join(dir, "emptydir")
	os.Mkdir(empty, 0o755)
	if _, err := ExpandInputs([]string{empty}); err == nil {
		t.Fatal("empty directory accepted")
	}
}

func TestTraceSetMergesByTime(t *testing.T) {
	dir := t.TempDir()
	// Three interleaved day-files, one gzipped — like a real capture
	// directory.
	r1 := setRecords(400, 1, 1000)
	r2 := setRecords(300, 2, 1000.5)
	r3 := setRecords(200, 3, 1001)
	p1 := filepath.Join(dir, "day1.trace")
	p2 := filepath.Join(dir, "day2.trace.gz")
	p3 := filepath.Join(dir, "day3.trace")
	writeTextFile(t, p1, r1, false)
	writeTextFile(t, p2, r2, true)
	writeTextFile(t, p3, r3, false)

	ts, err := OpenTraceSet([]string{p1, p2, p3}, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	var n int
	last := -1.0
	for {
		rec, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Time < last {
			t.Fatalf("record %d out of order: %v < %v", n, rec.Time, last)
		}
		last = rec.Time
		n++
	}
	if n != 900 {
		t.Fatalf("merged %d records, want 900", n)
	}
	stats := ts.Stats()
	if len(stats) != 3 || stats[0].Records != 400 || stats[1].Records != 300 || stats[2].Records != 200 {
		t.Fatalf("per-file stats: %+v", stats)
	}
}

func TestTraceSetSingleFile(t *testing.T) {
	dir := t.TempDir()
	recs := setRecords(100, 4, 0)
	p := filepath.Join(dir, "one.trace")
	writeTextFile(t, p, recs, false)
	ts, err := OpenTraceSet([]string{p}, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	var n int64
	for {
		_, err := ts.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 100 || ts.Stats()[0].Records != 100 {
		t.Fatalf("n=%d stats=%+v", n, ts.Stats())
	}
}

func TestTraceSetErrorNamesFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.trace")
	writeTextFile(t, good, setRecords(50, 5, 0), false)
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("not a trace line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenTraceSet([]string{good, bad}, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	for {
		_, err := ts.Next()
		if err == io.EOF {
			t.Fatal("bad file read as clean EOF")
		}
		if err != nil {
			if !bytes.Contains([]byte(err.Error()), []byte("bad.trace")) {
				t.Fatalf("error does not name the bad file: %v", err)
			}
			return
		}
	}
}

func TestTraceSetCloseMidStream(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "big.trace")
	writeTextFile(t, p, setRecords(20000, 6, 0), false)
	baseline := runtime.NumGoroutine()
	ts, err := OpenTraceSet([]string{p}, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ts.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	// The read-ahead goroutine exits.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// named gives a stream the Name method an *os.File has.
type named struct {
	io.Reader
	name string
}

func (n named) Name() string { return n.name }

// TestOpenTraceReaders: a trace set over open streams merges like the
// same bytes opened from files, labels each input by its Name method (or
// its position), fails on a stream's read error rather than ending early,
// and leaves the streams open.
func TestOpenTraceReaders(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.trace"), filepath.Join(dir, "b.trace.gz")
	writeTextFile(t, p1, setRecords(300, 1, 1000), false)
	writeTextFile(t, p2, setRecords(200, 2, 1000.5), true)
	drain := func(ts *TraceSet) (times []float64, err error) {
		defer ts.Close()
		for {
			rec, err := ts.Next()
			if err == io.EOF {
				return times, nil
			}
			if err != nil {
				return times, err
			}
			times = append(times, rec.Time)
		}
	}
	fromFiles, err := OpenTraceSet([]string{p1, p2}, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := drain(fromFiles)
	if err != nil {
		t.Fatal(err)
	}

	f1, err := os.Open(p1)
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := OpenTraceReaders([]io.Reader{f1, bytes.NewReader(b2)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(ts)
	if err != nil || len(got) != len(want) {
		t.Fatalf("streams gave %d records (err %v), files %d", len(got), err, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d at %v from streams, %v from files", i, got[i], want[i])
		}
	}
	if st := ts.Stats(); st[0].Path != p1 || st[1].Path != "input 1" || st[0].Records != 300 || st[1].Records != 200 {
		t.Fatalf("stats %+v", st)
	}
	if _, err := f1.Seek(0, io.SeekStart); err != nil {
		t.Fatalf("Close closed a stream it does not own: %v", err)
	}

	b1, _ := os.ReadFile(p1)
	cut := named{io.MultiReader(bytes.NewReader(b1[:len(b1)/2]), iotest.ErrReader(io.ErrUnexpectedEOF)), "piece-7"}
	ts, err = OpenTraceReaders([]io.Reader{cut})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(ts); err == nil || !strings.Contains(err.Error(), "piece-7: ") {
		t.Fatalf("cut stream: err = %v, want one naming piece-7", err)
	}
	if _, err := OpenTraceReaders(nil); err == nil {
		t.Fatal("empty trace set opened")
	}
}

// pairRecords is a time-ordered stream of n read calls, each answered
// by its reply a millisecond later, from one client.
func pairRecords(n int, seed int64, start float64, client uint32) []*core.Record {
	rng := rand.New(rand.NewSource(seed))
	var records []*core.Record
	tm := start
	for i := 0; i < n; i++ {
		tm += 0.002 + rng.Float64()*0.01
		call := &core.Record{
			Time: tm, Kind: core.KindCall, Proto: core.ProtoUDP,
			Client: client, Port: 800, Server: 0x0a000001,
			XID: uint32(i), Version: 3, Proc: core.ProcRead, UID: uint32(rng.Intn(100)),
			FH: core.InternFH("00000000000000bb"), Offset: uint64(i) * 8192, Count: 8192,
		}
		reply := *call
		reply.Time, reply.Kind = tm+0.001, core.KindReply
		reply.UID, reply.FH, reply.Offset, reply.Count = 0, 0, 0, 0
		reply.RCount, reply.Size, reply.FileID, reply.EOF = 8192, uint64(rng.Intn(1<<30)), uint64(i), i%7 == 0
		records = append(records, call, &reply)
	}
	return records
}

// TestHeldRecordsAreNeverReused: a consumer that keeps every record of
// a three-file TraceSet, recycling none, sees them unchanged while a
// second TraceSet in the same process recycles every record through a
// Joiner — records that are never handed back are never decoded into
// again.
func TestHeldRecordsAreNeverReused(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("array%d.trace", i))
		writeTextFile(t, p, pairRecords(3000, int64(i+1), 1000+float64(i)/3, 0x0a000010+uint32(i)), i == 1)
		paths = append(paths, p)
	}

	// The reference: a serial decode of the same files, kept by value.
	var srcs []core.RecordSource
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		src, err := core.DetectSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	var want []core.Record
	for m := core.NewMerger(srcs...); ; {
		rec, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, *rec)
	}

	held, err := OpenTraceSet(paths, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	recycling, err := OpenTraceSet(paths, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer recycling.Close()

	var kept []*core.Record
	keepErr := make(chan error, 1)
	go func() {
		for {
			rec, err := held.Next()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				keepErr <- err
				return
			}
			kept = append(kept, rec)
		}
	}()
	j := NewJoiner(recycling)
	for {
		if _, err := j.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-keepErr; err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.Calls != int64(len(want)/2) || st.UnmatchedCalls != 0 {
		t.Fatalf("joiner stats %+v: want every one of %d calls matched", st, len(want)/2)
	}
	if len(kept) != len(want) {
		t.Fatalf("kept %d records, serial decode has %d", len(kept), len(want))
	}
	for i := range want {
		if *kept[i] != want[i] {
			t.Fatalf("kept record %d changed:\n got %+v\nwant %+v", i, kept[i], want[i])
		}
	}
}
