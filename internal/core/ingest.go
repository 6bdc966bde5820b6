package core

// Parallel ingest: the trace decoder was the last serial stage in the
// analysis hot path (docs/BENCHMARKS.md) — one goroutine parsed every
// line while the sharded pipeline idled behind it. This file splits
// ingest into three stages:
//
//	input ──► splitter ──► decoder pool ──► resequencer ──► records
//	          cuts text on    N goroutines     restores batch
//	          line boundaries  parse batches    order, yields
//	          and binary on    concurrently     the exact serial
//	          record bounds                     stream
//
// The splitter is cheap: for text it only finds newlines, for the
// binary format it walks length prefixes and the two leading varints
// of each record (presence bitmap + zigzag time delta) so every batch
// carries the absolute-time base it needs to decode independently.
// All expensive work — field parsing, string allocation — runs in the
// decoder pool. The resequencer releases batches strictly in splitter
// order, so a ParallelReader is observationally identical to the
// serial Reader/BinaryReader at any decoder count: same records, same
// order, same errors at the same points. The equivalence is enforced
// by tests and by a differential fuzz target (FuzzIngestEquivalence).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
)

// maxLineBytes caps one text line, matching the serial Reader's
// scanner buffer; longer lines surface bufio.ErrTooLong on both paths.
const maxLineBytes = 1 << 20

// ErrReaderStopped reports a Next call after Stop tore the reader down.
var ErrReaderStopped = errors.New("core: parallel reader stopped")

// IngestConfig sizes a ParallelReader.
type IngestConfig struct {
	// Decoders is the number of concurrent decode goroutines; <= 0
	// selects runtime.GOMAXPROCS(0). Every count produces the exact
	// serial stream.
	Decoders int
	// BatchBytes is the target text batch cut by the splitter; <= 0
	// selects 256 KiB. Smaller batches spread work sooner, larger ones
	// amortize channel traffic.
	BatchBytes int
	// BatchRecords is the number of binary records per batch; <= 0
	// selects 2048.
	BatchRecords int
}

func (c IngestConfig) decoders() int {
	if c.Decoders > 0 {
		return c.Decoders
	}
	return runtime.GOMAXPROCS(0)
}

func (c IngestConfig) batchBytes() int {
	if c.BatchBytes > 0 {
		return c.BatchBytes
	}
	return 256 << 10
}

func (c IngestConfig) batchRecords() int {
	if c.BatchRecords > 0 {
		return c.BatchRecords
	}
	return 2048
}

// batch is one splitter unit of work. Text batches hold whole lines;
// binary batches hold length-prefixed record payloads plus the
// absolute time base the delta chain needs.
type batch struct {
	seq       int
	data      []byte
	firstLine int64 // text: 1-based number of the first line
	baseUsec  int64 // binary: lastUsec before the first record
}

// result is one decoded batch, or the splitter's terminal marker
// (records empty, err set — io.EOF for a clean end).
type result struct {
	seq  int
	recs []*Record
	err  error
}

// ParallelReader is a RecordSource that decodes a trace with a pool of
// goroutines while preserving the serial stream exactly. The input is
// sniffed like DetectSource: gzip is decompressed transparently and
// the text/binary format is auto-detected.
type ParallelReader struct {
	workCh   chan batch
	resCh    chan result
	stop     chan struct{}
	stopOnce sync.Once

	// Resequencer state, touched only by the consuming goroutine.
	pending map[int]result
	nextSeq int
	cur     result
	curIdx  int
}

// NewParallelReader starts the splitter and decoder goroutines over r.
// The reader shuts its goroutines down when the stream ends or errors;
// call Stop to abandon it earlier.
func NewParallelReader(r io.Reader, cfg IngestConfig) (*ParallelReader, error) {
	br, binaryFormat, err := sniffReader(r)
	if err != nil {
		return nil, err
	}
	n := cfg.decoders()
	p := &ParallelReader{
		workCh:  make(chan batch, 2*n),
		resCh:   make(chan result, 2*n),
		stop:    make(chan struct{}),
		pending: make(map[int]result),
	}
	for i := 0; i < n; i++ {
		go p.decodeLoop(binaryFormat)
	}
	go func() {
		defer close(p.workCh)
		if binaryFormat {
			p.splitBinary(br, cfg.batchRecords())
		} else {
			p.splitText(br, cfg.batchBytes())
		}
	}()
	return p, nil
}

// Stop tears the reader down, releasing its goroutines. It is called
// automatically once Next returns any error (including io.EOF); it is
// safe to call repeatedly.
func (p *ParallelReader) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// Recycle implements RecordRecycler: records from Next come from the
// shared pool, and consumers hand dead ones back here.
func (p *ParallelReader) Recycle(r *Record) { FreeRecord(r) }

// Next implements RecordSource. Records come back in exact input
// order; the first decode or read error is returned at the same point
// in the stream where the serial reader would return it, and is then
// sticky.
func (p *ParallelReader) Next() (*Record, error) {
	for {
		if p.curIdx < len(p.cur.recs) {
			r := p.cur.recs[p.curIdx]
			p.curIdx++
			return r, nil
		}
		if p.cur.err != nil {
			p.Stop()
			return nil, p.cur.err
		}
		res, ok := p.pending[p.nextSeq]
		for !ok {
			select {
			case r := <-p.resCh:
				if r.seq == p.nextSeq {
					res, ok = r, true
				} else {
					p.pending[r.seq] = r
				}
			case <-p.stop:
				return nil, ErrReaderStopped
			}
		}
		delete(p.pending, p.nextSeq)
		p.nextSeq++
		p.cur, p.curIdx = res, 0
	}
}

// send hands a batch to the decoder pool, giving up if Stop ran.
func (p *ParallelReader) send(b batch) bool {
	select {
	case p.workCh <- b:
		return true
	case <-p.stop:
		return false
	}
}

// finish emits the splitter's terminal marker.
func (p *ParallelReader) finish(seq int, err error) {
	select {
	case p.resCh <- result{seq: seq, err: err}:
	case <-p.stop:
	}
}

func (p *ParallelReader) decodeLoop(binaryFormat bool) {
	for b := range p.workCh {
		var res result
		if binaryFormat {
			res = decodeBinaryBatch(b)
		} else {
			res = decodeTextBatch(b)
		}
		select {
		case p.resCh <- res:
		case <-p.stop:
			return
		}
	}
}

// readFill fills buf from br, returning the bytes read and the
// underlying reader's error verbatim. Unlike io.ReadFull it never
// rewrites a mid-stream error: a truncated gzip member reports
// io.ErrUnexpectedEOF itself, and masking that as a clean end of input
// would silently truncate a damaged archive.
func readFill(br *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := br.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// splitText cuts the input into batches of whole lines. Like the
// serial reader's scanner, a read error mid-stream still tokenizes the
// bytes read so far (records before the failure are delivered), and a
// line the scanner could not buffer surfaces as bufio.ErrTooLong.
func (p *ParallelReader) splitText(br *bufio.Reader, batchBytes int) {
	seq := 0
	line := int64(1)
	for {
		buf := make([]byte, batchBytes)
		n, err := readFill(br, buf)
		buf = buf[:n]
		final := err != nil
		if err == io.EOF {
			err = nil
		}
		if !final {
			// Grow to the next line boundary so batches hold whole
			// lines. A line the serial scanner could not buffer is
			// shipped oversized; the decoder reports ErrTooLong on it.
			for len(buf) > 0 && buf[len(buf)-1] != '\n' {
				frag, rerr := br.ReadSlice('\n')
				buf = append(buf, frag...)
				if rerr == nil {
					break
				}
				if rerr == bufio.ErrBufferFull {
					if len(buf) > batchBytes+maxLineBytes+1 {
						break
					}
					continue
				}
				final = true
				if rerr != io.EOF {
					err = rerr
				}
				break
			}
		}
		if len(buf) > 0 {
			nl := int64(bytes.Count(buf, []byte{'\n'}))
			if buf[len(buf)-1] != '\n' {
				nl++
			}
			if !p.send(batch{seq: seq, data: buf, firstLine: line}) {
				return
			}
			seq++
			line += nl
		}
		if final {
			if err == nil {
				err = io.EOF
			}
			p.finish(seq, err)
			return
		}
	}
}

// decodeTextBatch parses one batch of whole lines, mirroring the
// serial Reader: blank lines and '#' comments are skipped, parse
// errors carry the 1-based line number.
func decodeTextBatch(b batch) result {
	res := result{seq: b.seq}
	data := b.data
	line := b.firstLine
	for len(data) > 0 {
		var ln []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			ln, data = data[:i], data[i+1:]
		} else {
			ln, data = data, nil
		}
		// The serial scanner needs buffer headroom beyond the line —
		// for the newline, or (at end of input) to attempt the read
		// that reports EOF — so a line of exactly maxLineBytes already
		// fails there, terminated or not.
		if len(ln) >= maxLineBytes {
			res.err = bufio.ErrTooLong
			return res
		}
		ln = bytes.TrimSpace(ln)
		if len(ln) == 0 || ln[0] == '#' {
			line++
			continue
		}
		rec := NewRecord()
		if err := UnmarshalRecordBytes(ln, rec); err != nil {
			FreeRecord(rec)
			res.err = fmt.Errorf("line %d: %w", line, err)
			return res
		}
		line++
		res.recs = append(res.recs, rec)
	}
	return res
}

// splitBinary cuts the input on record boundaries. Only the length
// prefix and the two leading varints of each record are examined here
// — enough to find the next boundary and accumulate the absolute time
// each batch starts from; full field decoding happens in the pool.
func (p *ParallelReader) splitBinary(br *bufio.Reader, batchRecords int) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrBadTraceMagic
		}
		p.finish(0, err)
		return
	}
	if hdr != binaryMagic {
		p.finish(0, ErrBadTraceMagic)
		return
	}
	seq := 0
	var lastUsec int64
	for {
		base := lastUsec
		var buf []byte
		var term error
		for recs := 0; recs < batchRecords; recs++ {
			recLen, err := binary.ReadUvarint(br)
			if err != nil {
				switch err {
				case io.EOF:
					term = io.EOF
				case io.ErrUnexpectedEOF:
					term = fmt.Errorf("core: truncated binary record length: %w", err)
				default:
					term = err
				}
				break
			}
			if recLen > maxBinaryRecord {
				term = fmt.Errorf("core: implausible binary record of %d bytes", recLen)
				break
			}
			start := len(buf)
			buf = binary.AppendUvarint(buf, recLen)
			off := len(buf)
			buf = append(buf, make([]byte, recLen)...)
			if _, err := io.ReadFull(br, buf[off:]); err != nil {
				term = fmt.Errorf("core: truncated binary record: %w", err)
				buf = buf[:start]
				break
			}
			delta, err := recordTimeDelta(buf[off:])
			if err != nil {
				term = err
				buf = buf[:start]
				break
			}
			lastUsec += delta
		}
		if len(buf) > 0 {
			if !p.send(batch{seq: seq, data: buf, baseUsec: base}) {
				return
			}
			seq++
		}
		if term != nil {
			p.finish(seq, term)
			return
		}
	}
}

// decodeBinaryBatch decodes one batch of length-prefixed record
// payloads, chaining time deltas from the batch's absolute base.
func decodeBinaryBatch(b batch) result {
	res := result{seq: b.seq}
	c := &byteCursor{b: b.data}
	lastUsec := b.baseUsec
	for c.off < len(c.b) {
		// The splitter wrote these length prefixes; should one ever be
		// bad, the nil payload fails decodeRecord below.
		payload := c.strBytes()
		rec := NewRecord()
		if err := decodeRecord(payload, &lastUsec, rec); err != nil {
			FreeRecord(rec)
			res.err = err
			return res
		}
		res.recs = append(res.recs, rec)
	}
	return res
}
