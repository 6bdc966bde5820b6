package core

// Record recycling: the decode front end produces one Record per traced
// message — tens of millions per real trace — and almost all of them
// die moments later, as soon as the Joiner folds a call/reply pair into
// an Op. Handing dead records back to the decoders removes the dominant
// remaining allocation on the ingest path.
//
// Records travel in batches, not one at a time. A decoder and the
// consumer of its records normally run on different goroutines (the
// read-ahead's decode goroutine, the joiner's), so a per-record
// exchange would pay a cross-goroutine hand-off for every record.
// Instead the consumer collects dead records in a RecycleBatch and
// sends a full batch to one process-wide channel of spares; a decoder
// takes records from its own RecordStock and refills it from that
// channel with one receive per batch. Both sides use non-blocking
// channel operations: a decoder that finds no spare batch allocates,
// and a full batch that finds the channel full is left to the GC. The
// emptied stock slices travel back on a second channel, so the batches
// themselves are reused too.
//
// Ownership protocol: sources that decode records implement
// RecordRecycler; a consumer that is done with a record hands it back
// through the source's Recycle. Consumers must never recycle records
// they obtained from a plain slice or other caller-owned storage —
// sources that don't own their records simply don't implement the
// interface, so the type assertion at the consumer picks the safe
// default of doing nothing. Two contracts hold the scheme together:
//
//   - Recycle is called from one goroutine at a time: each RecycleBatch
//     belongs to the object whose Recycle fills it. The Joiner is the
//     one caller in a pipeline, nfsmond pushes records to its joiner
//     under one lock, and nfstrace's writer goroutine hands back what
//     its sniffer (capture.Sniffer) emitted.
//   - A record that is never handed back is never reused. Only records
//     passed to Recycle enter a batch, so a consumer may keep any record
//     it does not recycle (tools that materialize a whole trace, tests
//     that collect records) for as long as it likes.

const (
	// recycleBatchSize is how many records one hand-back carries:
	// enough to make the channel operation a rounding error per record.
	recycleBatchSize = 256
	// spareBatches bounds the spare records the process keeps:
	// 64 × 256 records, a few MB, covers the records in flight
	// between several concurrent decoders and their consumers.
	spareBatches = 64
)

var (
	// spareRecords carries full batches of zeroed records from
	// consumers to decoders.
	spareRecords = make(chan []*Record, spareBatches)
	// emptyBatches carries the slices of drained batches back from
	// decoders to consumers.
	emptyBatches = make(chan []*Record, spareBatches)
)

// RecordStock is a decoder's supply of records to decode into. The
// zero value is ready; a stock is used from one goroutine at a time.
type RecordStock struct {
	recs []*Record
}

// Next returns a zeroed record: from the stock, else from a spare
// batch, else freshly allocated.
func (s *RecordStock) Next() *Record {
	if n := len(s.recs); n > 0 {
		r := s.recs[n-1]
		s.recs = s.recs[:n-1]
		return r
	}
	select {
	case spare := <-spareRecords:
		if cap(s.recs) > 0 {
			select {
			case emptyBatches <- s.recs:
			default:
			}
		}
		s.recs = spare[:len(spare)-1]
		return spare[len(spare)-1]
	default:
		return new(Record)
	}
}

// RecycleBatch collects dead records for the decoders. Its Recycle is
// what a record source's Recycle calls; the zero value is ready, and it
// must not be used from two goroutines at once.
type RecycleBatch struct {
	recs []*Record
}

// Recycle zeroes r and adds it to the batch, sending the batch to the
// decoders once it is full. The caller must hold the only reference.
func (b *RecycleBatch) Recycle(r *Record) {
	*r = Record{}
	if b.recs == nil {
		select {
		case b.recs = <-emptyBatches:
		default:
			b.recs = make([]*Record, 0, recycleBatchSize)
		}
	}
	b.recs = append(b.recs, r)
	if len(b.recs) < recycleBatchSize {
		return
	}
	select {
	case spareRecords <- b.recs:
		b.recs = nil
	default:
		// The decoders hold spares enough: drop these records and
		// reuse the slice.
		clear(b.recs)
		b.recs = b.recs[:0]
	}
}

// RecordRecycler is implemented by record sources that decode their
// records. Consumers call Recycle when a record is dead; sources that
// don't implement it keep ownership with the caller.
type RecordRecycler interface {
	Recycle(*Record)
}
