package core

// Read-ahead ingest: decoding is the largest stage of an analysis pass,
// so it runs on a goroutine of its own, overlapped with the join and
// the reducers behind it. That goroutine runs the very serial reader
// DetectSource picks and hands its records over in fixed-size batches,
// so a ReadAhead yields the same records, in the same order, with the
// same error at the same point as the serial reader — by construction,
// not by a second implementation of either trace format.

import (
	"errors"
	"io"
	"sync"
)

const (
	// readAheadBatch is the number of records one hand-off carries:
	// enough to make the channel operation a rounding error per record.
	readAheadBatch = 512
	// readAheadDepth is the number of batches decoded ahead of the
	// consumer: enough to keep decoding through a short consumer stall
	// (a GC pause, a merge waiting on another file), few enough that a
	// file's read-ahead holds at most a few thousand records.
	readAheadDepth = 4
)

// ErrReaderStopped reports a Next call after Stop tore the reader down.
var ErrReaderStopped = errors.New("core: read-ahead stopped")

// recordBatch is one hand-off: decoded records, then (on the last batch
// only) the serial reader's terminal error, io.EOF for a clean end.
type recordBatch struct {
	recs []*Record
	err  error
}

// ReadAhead is a RecordSource that decodes a trace on its own goroutine.
// The input is sniffed like DetectSource: gzip is decompressed
// transparently and the text/binary format is auto-detected.
type ReadAhead struct {
	batches  chan recordBatch
	stop     chan struct{}
	stopOnce sync.Once
	cur      recordBatch
	i        int
}

// NewReadAhead sniffs r and starts decoding it. Sniffing reads the first
// bytes of r before it returns. The goroutine exits once it has handed
// over the stream's end or error; call Stop to abandon the reader
// earlier.
func NewReadAhead(r io.Reader) (*ReadAhead, error) {
	src, err := DetectSource(r)
	if err != nil {
		return nil, err
	}
	ra := &ReadAhead{batches: make(chan recordBatch, readAheadDepth), stop: make(chan struct{})}
	go ra.decode(src)
	return ra, nil
}

func (ra *ReadAhead) decode(src RecordSource) {
	for {
		b := recordBatch{recs: make([]*Record, 0, readAheadBatch)}
		for len(b.recs) < readAheadBatch && b.err == nil {
			rec, err := src.Next()
			if err != nil {
				b.err = err
			} else {
				b.recs = append(b.recs, rec)
			}
		}
		select {
		case ra.batches <- b:
		case <-ra.stop:
			return
		}
		if b.err != nil {
			return
		}
	}
}

// Next implements RecordSource. The serial reader's terminal error is
// sticky.
func (ra *ReadAhead) Next() (*Record, error) {
	for ra.i == len(ra.cur.recs) {
		if ra.cur.err != nil {
			return nil, ra.cur.err
		}
		select {
		case <-ra.stop:
			return nil, ErrReaderStopped
		default:
		}
		select {
		case ra.cur = <-ra.batches:
			ra.i = 0
		case <-ra.stop:
			return nil, ErrReaderStopped
		}
	}
	rec := ra.cur.recs[ra.i]
	ra.i++
	return rec, nil
}

// Recycle implements RecordRecycler: records come from the shared pool.
func (ra *ReadAhead) Recycle(r *Record) { FreeRecord(r) }

// Stop releases the decode goroutine. Next returns what is left of the
// batch it is in, then ErrReaderStopped (or the stream's end, if that
// was already handed over). Stop is safe to call repeatedly and from
// any goroutine. It does not wait for the goroutine, which may be
// blocked in a read of the input that only the input's owner can end;
// the goroutine exits when that read returns.
func (ra *ReadAhead) Stop() { ra.stopOnce.Do(func() { close(ra.stop) }) }

// IngestConfig is empty: the read-ahead has no knobs. It remains only
// because the benchmark's layer tracer (tools/perf/layers) writes
// core.IngestConfig{}, and goes when a benchmark change drops it.
type IngestConfig struct{}

// NewParallelReader is NewReadAhead; cfg is ignored. It remains only
// for the benchmark's layer tracer (tools/perf/layers/analyze.go) and
// goes when a benchmark change calls NewReadAhead.
func NewParallelReader(r io.Reader, _ IngestConfig) (*ReadAhead, error) { return NewReadAhead(r) }
