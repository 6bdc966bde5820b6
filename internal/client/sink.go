package client

import (
	"repro/internal/core"
	"repro/internal/netem"
)

// Sink receives trace records from the simulation. The size argument is
// the estimated wire size of the message carrying the record, which the
// mirror-port loss model needs.
type Sink interface {
	Record(rec *core.Record, wireSize int)
}

// SliceSink collects records in memory.
type SliceSink struct {
	Records []*core.Record
}

// Record implements Sink.
func (s *SliceSink) Record(rec *core.Record, _ int) {
	s.Records = append(s.Records, rec)
}

// FuncSink adapts a function to Sink.
type FuncSink func(rec *core.Record, wireSize int)

// Record implements Sink.
func (f FuncSink) Record(rec *core.Record, wireSize int) { f(rec, wireSize) }

// LossySink drops records whose packets the mirror port misses. The
// port model is stateful in time, so it must see records in capture
// order, which is how the workload generators deliver them.
type LossySink struct {
	Next Sink
	Port *netem.MirrorPort
}

// Record implements Sink.
func (l *LossySink) Record(rec *core.Record, wireSize int) {
	if l.Port != nil && !l.Port.Offer(rec.Time, wireSize) {
		return
	}
	l.Next.Record(rec, wireSize)
}
