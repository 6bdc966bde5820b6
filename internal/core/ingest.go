package core

// Read-ahead ingest: decoding is the largest stage of an analysis pass,
// so it runs on a goroutine of its own, overlapped with the join and
// the reducers behind it. That goroutine runs the very serial reader
// DetectSource picks and hands its records over in batches, so a
// ReadAhead yields the same records, in the same order, with the same
// error at the same point as the serial reader — by construction, not
// by a second implementation of either trace format. A batch ends when
// it is full or when the serial reader next reads the input, so a live
// feed's records reach the consumer as soon as they are decoded.

import (
	"errors"
	"io"
	"sync"
)

const (
	// readAheadBatch is the most records one hand-off carries: enough to
	// make the channel operation a rounding error per record.
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
	batches chan recordBatch
	// free returns consumed batch slices to the decoder. It holds
	// readAheadDepth+2, every slice that can be in circulation (the
	// queued batches, the one filling, the one being read), so a
	// return never finds it full.
	free     chan []*Record
	stop     chan struct{}
	stopOnce sync.Once
	cur      recordBatch
	i        int
	spent    RecycleBatch
}

// NewReadAhead sniffs r and starts decoding it. Sniffing reads the first
// bytes of r before it returns. The goroutine exits once it has handed
// over the stream's end or error; call Stop to abandon the reader
// earlier.
func NewReadAhead(r io.Reader) (*ReadAhead, error) {
	ra := &ReadAhead{
		batches: make(chan recordBatch, readAheadDepth),
		free:    make(chan []*Record, readAheadDepth+2),
		stop:    make(chan struct{}),
	}
	d := &decoder{ra: ra, in: r, recs: make([]*Record, 0, readAheadBatch)}
	src, err := DetectSource(d)
	if err != nil {
		return nil, err
	}
	go d.run(src)
	return ra, nil
}

// decoder is the decode goroutine's side of a ReadAhead. It sits
// beneath the serial reader as its input, so it sees every read of the
// underlying stream: before each one, which on a live feed may block
// until the producer writes again, it hands over the records decoded so
// far. A record that has been read never waits for later input; on a
// file the cut costs one short batch per buffer refill.
type decoder struct {
	ra   *ReadAhead
	in   io.Reader
	recs []*Record // the batch being filled
}

// Read implements io.Reader for the serial reader: flush, then read.
func (d *decoder) Read(p []byte) (int, error) {
	if len(d.recs) > 0 && !d.send(nil) {
		return 0, ErrReaderStopped
	}
	return d.in.Read(p)
}

// send hands over the batch being filled, with err on the last one,
// and starts a new batch in a slice the consumer is done with, if one
// has come back. It reports false once Stop was called.
func (d *decoder) send(err error) bool {
	select {
	case d.ra.batches <- recordBatch{recs: d.recs, err: err}:
	case <-d.ra.stop:
		return false
	}
	select {
	case recs := <-d.ra.free:
		d.recs = recs[:0]
	default:
		d.recs = make([]*Record, 0, readAheadBatch)
	}
	return true
}

func (d *decoder) run(src RecordSource) {
	for {
		rec, err := src.Next()
		if err != nil {
			d.send(err)
			return
		}
		d.recs = append(d.recs, rec)
		if len(d.recs) == readAheadBatch && !d.send(nil) {
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
		if ra.cur.recs != nil {
			select {
			case ra.free <- ra.cur.recs:
			default:
			}
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

// Recycle implements RecordRecycler. It runs on the consumer's
// goroutine, so its batch is the ReadAhead's, not the decoder's.
func (ra *ReadAhead) Recycle(r *Record) { ra.spent.Recycle(r) }

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
