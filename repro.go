// Package repro is the public face of the reproduction of "Passive NFS
// Tracing of Email and Research Workloads" (Ellard, Ledlie, Malkani,
// Seltzer; FAST 2003).
//
// It wires together the internal substrates — wire-format codecs, the
// sniffer, the anonymizer, the client/server simulators, and the CAMPUS
// and EECS workload generators — into three things a user needs:
//
//   - Trace generation: GenerateCampus and GenerateEECS produce joined
//     operation streams (and optionally raw records or pcap files) for
//     the two systems the paper studied, at a configurable scale.
//   - Trace processing: Sniff decodes packets into records, Anonymize
//     rewrites records, and the core text format reads/writes traces.
//   - Experiments: Table1–Table5 and Figure1–Figure5 regenerate every
//     table and figure of the paper's evaluation, plus the §4.1.4,
//     §4.1.5, §6.3, and §6.4 side experiments.
//
// The tables and figures run on the internal/pipeline engine: each
// trace is streamed once per experiment through sharded per-file
// reducers whose merged results are byte-identical at any worker count.
// Set Trace.Pipeline to control the sharding; the zero value uses one
// worker per CPU.
package repro

import (
	"io"
	"slices"

	"repro/internal/anon"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/pcap"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Trace is a generated or captured operation stream with its metadata.
type Trace struct {
	// Name identifies the system ("CAMPUS" or "EECS").
	Name string
	// Ops is the joined call/reply stream in call-time order. It is held
	// rather than regenerated because the tables and figures make some
	// fifteen passes over each trace and simulating one costs far more
	// than a pass.
	Ops []*core.Op
	// Days is the window length.
	Days float64
	// Join reports call/reply matching statistics (loss estimation).
	Join core.JoinStats
	// ReorderWindowMS is the §4.2 sorting window appropriate for this
	// system (5 for EECS, 10 for CAMPUS).
	ReorderWindowMS float64
	// Pipeline configures the sharded analysis engine the tables and
	// figures run on. The zero value uses one worker per CPU; every
	// worker count produces byte-identical output.
	Pipeline pipeline.Config

	// pieces > 1 runs every analysis as a chain of that many serialized
	// partial states (pipeline.RunPartitioned) instead of one pass; the
	// state equivalence tests set it.
	pieces int
}

// analyze streams the trace's operations through the sharded pipeline,
// feeding every analyzer in one pass — or, when pieces > 1, as a
// resume chain of serialized partial states. Every table, figure and
// side experiment reads the trace through here.
func (tr *Trace) analyze(analyzers ...pipeline.Analyzer) {
	if tr.pieces > 1 {
		_, err := pipeline.RunPartitioned(tr.Pipeline, splitOps(tr.Ops, tr.pieces), analyzers...)
		if err != nil {
			// Every analyzer this package registers supports partial
			// state; a failure here is a programming error.
			panic(err)
		}
		return
	}
	pipeline.RunSlice(tr.Pipeline, tr.Ops, analyzers...)
}

// window returns the trace cut to the operations in [from, to) seconds,
// or the whole trace when it has none there (a window shorter than the
// one the paper's figure names).
func (tr *Trace) window(from, to float64) *Trace {
	cut := *tr
	cut.Ops = slices.DeleteFunc(slices.Clone(tr.Ops), func(op *core.Op) bool { return op.T < from || op.T >= to })
	if len(cut.Ops) == 0 {
		return tr
	}
	return &cut
}

// splitOps cuts ops into n contiguous pieces of near-equal length.
func splitOps(ops []*core.Op, n int) [][]*core.Op {
	if n > len(ops) {
		n = len(ops)
	}
	if n < 1 {
		n = 1
	}
	pieces := make([][]*core.Op, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(ops) / n
		hi := (i + 1) * len(ops) / n
		pieces = append(pieces, ops[lo:hi])
	}
	return pieces
}

// finish ends a trace whose records have all been pushed into j.
func (tr *Trace) finish(j *pipeline.Joiner) *Trace {
	tr.Ops = j.Drain(tr.Ops)
	tr.Join = j.Stats()
	return tr
}

// Scale selects the simulated population size. The real systems were
// far larger (CAMPUS: ~700 accounts on the traced array; EECS: a
// department of workstations); ratios and shapes are scale-invariant.
type Scale struct {
	// CampusUsers is the simulated CAMPUS account count.
	CampusUsers int
	// EECSClients is the simulated workstation count.
	EECSClients int
	// Days is the trace window (7 = the paper's Sunday–Saturday week).
	Days float64
	// Seed makes everything reproducible.
	Seed int64
}

// DefaultScale is a laptop-friendly full week (~1.5M operations).
func DefaultScale() Scale {
	return Scale{CampusUsers: 12, EECSClients: 4, Days: 7, Seed: 20011021}
}

// SmallScale is a quick single-day configuration for tests and benches.
func SmallScale() Scale {
	return Scale{CampusUsers: 3, EECSClients: 2, Days: 1, Seed: 20011021}
}

// campus and eecs run the Scale's simulation of either system into sink.
func (s Scale) campus(sink client.Sink) {
	workload.NewCampus(workload.DefaultCampusConfig(s.CampusUsers, s.Days, s.Seed), sink).Run()
}

func (s Scale) eecs(sink client.Sink) {
	workload.NewEECS(workload.DefaultEECSConfig(s.EECSClients, s.Days, s.Seed), sink).Run()
}

// generate simulates a system into a joined trace: each record leaves
// the simulation in capture order, passes the mirror port when there
// is one, and goes straight into the streaming joiner — the matcher
// nfsanalyze, nfsworker and nfsmond run — and only the operations it
// releases are kept.
func generate(tr *Trace, run func(client.Sink), port *netem.MirrorPort) *Trace {
	j := pipeline.NewPushJoiner()
	run(&client.LossySink{Port: port, Next: client.FuncSink(func(rec *core.Record, _ int) { tr.Ops = j.Push(rec, tr.Ops) })})
	return tr.finish(j)
}

// rawRecords simulates a system into its raw (unjoined) records.
func rawRecords(run func(client.Sink)) []*core.Record {
	sink := &client.SliceSink{}
	run(sink)
	return sink.Records
}

// GenerateCampus produces the CAMPUS email workload trace.
func GenerateCampus(s Scale) *Trace {
	return generate(&Trace{Name: "CAMPUS", Days: s.Days, ReorderWindowMS: 10}, s.campus, nil)
}

// GenerateEECS produces the EECS research workload trace.
func GenerateEECS(s Scale) *Trace {
	return generate(&Trace{Name: "EECS", Days: s.Days, ReorderWindowMS: 5}, s.eecs, nil)
}

// GenerateCampusLossy produces a CAMPUS trace observed through an
// overloaded mirror port (§4.1.4): some records never reach the tracer,
// so calls lose replies and replies lose calls.
func GenerateCampusLossy(s Scale, portRate float64) (*Trace, *netem.MirrorPort) {
	port := netem.NewMirrorPort()
	if portRate > 0 {
		port.Rate = portRate
	}
	return generate(&Trace{Name: "CAMPUS(lossy)", Days: s.Days, ReorderWindowMS: 10}, s.campus, port), port
}

// GenerateCampusRecords returns raw (unjoined) records, for the
// anonymizer and trace-file tools.
func GenerateCampusRecords(s Scale) []*core.Record { return rawRecords(s.campus) }

// GenerateEECSRecords returns raw (unjoined) EECS records, mirroring
// GenerateCampusRecords for the anonymizer and trace-file tools.
func GenerateEECSRecords(s Scale) []*core.Record { return rawRecords(s.eecs) }

// WriteTrace writes records in the text trace format.
func WriteTrace(w io.Writer, records []*core.Record) error {
	return core.WriteAll(w, records)
}

// ReadTrace reads a text trace and joins it into operations. Like
// nfsanalyze, it takes its input in capture order, as nfsgen and
// nfstrace write it. A record out of that order is joined all the
// same, but the operation of a late call may then follow later ones in
// Trace.Ops (see pipeline.Joiner).
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, j := &Trace{Name: "trace", ReorderWindowMS: 10}, pipeline.NewPushJoiner()
	for src := core.NewReader(r); ; {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tr.Ops = j.Push(rec, tr.Ops)
	}
	tr.finish(j)
	if n := len(tr.Ops); n > 0 {
		tr.Days = (tr.Ops[n-1].T - tr.Ops[0].T) / workload.Day
	}
	return tr, nil
}

// Sniff decodes a pcap stream into trace records, optionally
// anonymizing with the given anonymizer (nil = raw).
func Sniff(r io.Reader, anonymizer *anon.Anonymizer) ([]*core.Record, capture.Stats, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, capture.Stats{}, err
	}
	var records []*core.Record
	sn := capture.NewSniffer(func(rec *core.Record) { records = append(records, rec) })
	sn.Anon = anonymizer
	if err := sn.ReadPcap(pr); err != nil {
		return records, sn.Stats, err
	}
	return records, sn.Stats, nil
}

// Anonymize rewrites records in place with a default-configured
// anonymizer and returns it (so its tables can be saved).
func Anonymize(records []*core.Record, seed int64) *anon.Anonymizer {
	a := anon.New(anon.DefaultConfig(seed))
	for _, r := range records {
		a.Record(r)
	}
	return a
}
