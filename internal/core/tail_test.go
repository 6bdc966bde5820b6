package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// tailRecord builds a minimal distinguishable call record; xid is the
// identity the assertions track.
func tailRecord(t float64, xid uint32) *Record {
	r := new(Record)
	r.Time = t
	r.Client = 0x0a000001
	r.Port = 1023
	r.XID = xid
	r.Kind = KindCall
	r.Proto = ProtoUDP
	r.Version = 3
	r.Proc = MustProc("read")
	r.FH = InternFH("deadbeef")
	r.Offset = uint64(xid) * 8192
	r.Count = 8192
	return r
}

// appendRecords appends records [from, to) to path, one flush at the
// end, simulating a tracer writing a burst.
func appendRecords(t *testing.T, path string, base float64, from, to uint32) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for x := from; x < to; x++ {
		if err := w.Write(tailRecord(base+float64(x)*0.001, x)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// xidLog collects the xids the tail goroutine yields, with the locking
// the cross-goroutine assertions need.
type xidLog struct {
	mu   sync.Mutex
	xids []uint32
}

func (l *xidLog) add(x uint32) { l.mu.Lock(); l.xids = append(l.xids, x); l.mu.Unlock() }
func (l *xidLog) len() int     { l.mu.Lock(); defer l.mu.Unlock(); return len(l.xids) }
func (l *xidLog) all() []uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint32(nil), l.xids...)
}

// collectTail drains tr on a goroutine, recording every xid in order.
func collectTail(t *testing.T, tr *TailReader) (<-chan struct{}, *xidLog) {
	t.Helper()
	done := make(chan struct{})
	log := &xidLog{}
	go func() {
		defer close(done)
		for {
			rec, err := tr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("tail: %v", err)
				return
			}
			log.add(rec.XID)
			tr.Recycle(rec)
		}
	}()
	return done, log
}

// waitLen polls until the collector has seen want records or the
// deadline passes.
func waitLen(t *testing.T, log *xidLog, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if log.len() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("tail: saw %d records, want %d", log.len(), want)
}

// assertSeq checks that xids is exactly 0..n-1 in order: nothing
// dropped, nothing duplicated, nothing reordered.
func assertSeq(t *testing.T, xids []uint32, n int) {
	t.Helper()
	if len(xids) != n {
		t.Fatalf("got %d records, want %d", len(xids), n)
	}
	for i, x := range xids {
		if x != uint32(i) {
			t.Fatalf("record %d has xid %d; drop or duplicate at the boundary", i, x)
		}
	}
}

// TestTailReaderMidStreamAppends starts the tail on a short file and
// keeps appending while the reader is mid-stream: every burst must
// surface exactly once, in order, across multiple EOF boundaries.
func TestTailReaderMidStreamAppends(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "live.trace")
	appendRecords(t, path, 1000, 0, 10)

	tr, err := NewTailReader(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	done, xids := collectTail(t, tr)

	waitLen(t, xids, 10) // reader is at EOF, parked on the poll
	appendRecords(t, path, 1000, 10, 25)
	waitLen(t, xids, 25)
	appendRecords(t, path, 1000, 25, 40)
	waitLen(t, xids, 40)

	tr.Stop()
	<-done
	assertSeq(t, xids.all(), 40)
	if tr.Records() != 40 {
		t.Errorf("Records() = %d, want 40", tr.Records())
	}
}

// TestTailReaderRotation renames the file away mid-stream and recreates
// the path, the classic logrotate move. Records written to the old file
// before the rotation and to the new file after must each surface
// exactly once.
func TestTailReaderRotation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "live.trace")
	appendRecords(t, path, 1000, 0, 10)

	tr, err := NewTailReader(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	done, xids := collectTail(t, tr)
	waitLen(t, xids, 10)

	// Burst, then rotate before the reader necessarily saw it: the
	// drain-before-switch rule must still deliver records 10..19.
	appendRecords(t, path, 1000, 10, 20)
	if err := os.Rename(path, filepath.Join(dir, "live.trace.1")); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, path, 2000, 20, 30) // creates the new file
	waitLen(t, xids, 30)

	appendRecords(t, path, 2000, 30, 35)
	waitLen(t, xids, 35)

	tr.Stop()
	<-done
	assertSeq(t, xids.all(), 35)
	if tr.Rotations() != 1 {
		t.Errorf("Rotations() = %d, want 1", tr.Rotations())
	}
	if tr.Discarded() != 0 {
		t.Errorf("Discarded() = %d, want 0", tr.Discarded())
	}
}

// TestTailReaderTruncation truncates the file in place (copytruncate
// rotation) and writes a fresh stream; the reader must restart from
// offset zero without duplicating the pre-truncation records.
func TestTailReaderTruncation(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "live.trace")
	appendRecords(t, path, 1000, 0, 12)

	tr, err := NewTailReader(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	done, xids := collectTail(t, tr)
	waitLen(t, xids, 12)

	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	appendRecords(t, path, 2000, 12, 20)
	waitLen(t, xids, 20)

	tr.Stop()
	<-done
	assertSeq(t, xids.all(), 20)
}

// TestTailReaderPartialLine writes a record in two halves around the
// reader's poll: the half-written line must not surface (or error)
// until its newline lands.
func TestTailReaderPartialLine(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "live.trace")
	appendRecords(t, path, 1000, 0, 3)

	tr, err := NewTailReader(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	done, xids := collectTail(t, tr)
	waitLen(t, xids, 3)

	// Marshal record 3 and append it split mid-line.
	full := tailRecord(1000.5, 3).AppendMarshal(nil)
	full = append(full, '\n')
	half := len(full) / 2
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // reader polls past the fragment
	if got := xids.len(); got != 3 {
		t.Fatalf("half-written line surfaced: %d records", got)
	}
	if _, err := f.Write(full[half:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitLen(t, xids, 4)

	tr.Stop()
	<-done
	assertSeq(t, xids.all(), 4)
}

// TestTailReaderStopDrains ensures Stop after a final burst still
// yields the burst: stop means "finish what is on disk", not "abandon".
func TestTailReaderStopDrains(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "live.trace")
	appendRecords(t, path, 1000, 0, 5)

	tr, err := NewTailReader(path, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	done, xids := collectTail(t, tr)
	waitLen(t, xids, 5)

	appendRecords(t, path, 1000, 5, 30)
	tr.Stop() // reader is parked on a long poll; stop must still drain
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tail did not finish after Stop")
	}
	assertSeq(t, xids.all(), 30)
}

// TestTailReaderComments checks blank lines and comments are skipped in
// tail mode exactly as in batch mode.
func TestTailReaderComments(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "live.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "# tracer restart")
	fmt.Fprintln(f)
	w := NewWriter(f)
	if err := w.Write(tailRecord(1000, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr, err := NewTailReader(path, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	done, xids := collectTail(t, tr)
	waitLen(t, xids, 1)
	tr.Stop()
	<-done
	assertSeq(t, xids.all(), 1)
}
