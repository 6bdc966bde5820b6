// Package repro is the public face of the reproduction of "Passive NFS
// Tracing of Email and Research Workloads" (Ellard, Ledlie, Malkani,
// Seltzer; FAST 2003).
//
// It wires together the internal substrates — wire-format codecs, the
// sniffer, the anonymizer, the client/server simulators, and the CAMPUS
// and EECS workload generators — into three things a user needs:
//
//   - Trace generation: GenerateCampus and GenerateEECS simulate the two
//     systems the paper studied, at a configurable scale, and run every
//     analysis over the joined operation streams; GenerateCampusRecords
//     and GenerateEECSRecords return the raw records instead.
//   - Trace processing: Sniff decodes packets into records, Anonymize
//     rewrites records, and the core text format reads/writes traces.
//   - Experiments: Table1–Table5 and Figure1–Figure5 regenerate every
//     table and figure of the paper's evaluation, plus the §4.1.4,
//     §4.1.5, §6.3, and §6.4 side experiments.
//
// Each trace is analyzed in the pass that produces it. Generation
// pushes every operation the streaming joiner releases into the
// internal/pipeline engine, which runs every analysis the tables and
// figures read, sharded by file handle, with results byte-identical at
// any worker count. A Trace keeps those results, not its operations, so
// its memory follows the analyses' state rather than the trace's length.
package repro

import (
	"io"

	"repro/internal/anon"
	"repro/internal/capture"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/pcap"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Trace is the analyzed result of one generated operation stream, with
// its metadata.
type Trace struct {
	// Name identifies the system ("CAMPUS" or "EECS").
	Name string
	// Days is the window length.
	Days float64
	// Join reports call/reply matching statistics (loss estimation).
	Join core.JoinStats
	// ReorderWindowMS is the §4.2 sorting window appropriate for this
	// system (5 for EECS, 10 for CAMPUS).
	ReorderWindowMS float64
	// Stats counts the joined operations and spans their call times.
	Stats pipeline.Stats

	// res is what the experiments read of the trace.
	res results
}

// opFeed produces a trace: it passes every joined operation to emit,
// in call-time order, and returns the join statistics.
type opFeed func(emit func(*core.Op)) core.JoinStats

// newTrace runs the trace's analyses over the operations feed produces,
// as they come: each goes to one Live holding every analysis but
// Figure 1's. Figure 1 sweeps its Wednesday-morning window, or the
// whole trace when the window has no operation, so two more Lives run
// its sweep over each; the window's first operation ends the
// whole-trace one. Nothing keeps an operation after the Lives have
// taken it.
func newTrace(cfg pipeline.Config, name string, days, reorderMS float64, feed opFeed) *Trace {
	tr := &Trace{Name: name, Days: days, ReorderWindowMS: reorderMS}
	a := newAnalyses(days, reorderMS)
	lv := pipeline.NewLive(cfg, a.list()...)
	wed, all := newSweep(cfg), newSweep(cfg)
	tr.Join = feed(func(op *core.Op) {
		lv.Feed(op)
		switch {
		case onWednesdayMorning(op):
			wed.Feed(op)
			if all != nil {
				all.Abort()
				all = nil
			}
		case all != nil:
			all.Feed(op)
		}
	})
	tr.Stats = lv.Finish()
	figure1 := wed
	if wed.Finish().Ops == 0 {
		all.Finish()
		figure1 = all
	}
	tr.res = a.results(figure1.Result)
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

// joined is the feed of a simulation: each record leaves it in capture
// order, passes the mirror port when there is one, and goes straight
// into the streaming joiner, the matcher nfsanalyze, nfsworker and
// nfsmond run.
func joined(run func(client.Sink), port *netem.MirrorPort) opFeed {
	return func(emit func(*core.Op)) core.JoinStats {
		j := pipeline.NewPushJoiner()
		var ops []*core.Op
		run(&client.LossySink{Port: port, Next: client.FuncSink(func(rec *core.Record, _ int) {
			ops = j.Push(rec, ops[:0])
			for _, op := range ops {
				emit(op)
			}
		})})
		for _, op := range j.Drain(ops[:0]) {
			emit(op)
		}
		return j.Stats()
	}
}

// rawRecords simulates a system into its raw (unjoined) records.
func rawRecords(run func(client.Sink)) []*core.Record {
	sink := &client.SliceSink{}
	run(sink)
	return sink.Records
}

// GenerateCampus produces the CAMPUS email workload trace.
func GenerateCampus(s Scale) *Trace {
	return newTrace(pipeline.Config{}, "CAMPUS", s.Days, 10, joined(s.campus, nil))
}

// GenerateEECS produces the EECS research workload trace.
func GenerateEECS(s Scale) *Trace {
	return newTrace(pipeline.Config{}, "EECS", s.Days, 5, joined(s.eecs, nil))
}

// GenerateCampusLossy produces a CAMPUS trace observed through an
// overloaded mirror port (§4.1.4): some records never reach the tracer,
// so calls lose replies and replies lose calls.
func GenerateCampusLossy(s Scale, portRate float64) (*Trace, *netem.MirrorPort) {
	port := netem.NewMirrorPort()
	if portRate > 0 {
		port.Rate = portRate
	}
	return newTrace(pipeline.Config{}, "CAMPUS(lossy)", s.Days, 10, joined(s.campus, port)), port
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
