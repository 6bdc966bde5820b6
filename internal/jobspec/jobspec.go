// Package jobspec is the one catalog of analysis kinds and names an
// analysis job completely — the kind plus every tuning option — in a
// form that crosses process and machine boundaries: the coordinator
// serializes a Spec as JSON into a dispatch assignment, and the remote
// worker rebuilds the exact same analyzer set from it. Each kind's
// construction, its table as text and, for the kinds nfsmond serves,
// its table as JSON live here once, as do the ingest loop and the state
// codec calls. That is what keeps every execution mode (direct run,
// resumed run, in-process piece, remote worker, live snapshot)
// rendering byte-identical tables: they all run the same analyzers
// through the same loop and the same printers.
package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Spec is the complete, serializable description of one analysis job.
type Spec struct {
	// Kind is the analysis name, one of Kinds.
	Kind string `json:"kind"`
	// Window is the reorder window in ms (runs).
	Window float64 `json:"window"`
	// Jump is the jump tolerance in blocks (runs).
	Jump int64 `json:"jump"`
	// Start is the blocklife phase-1 start in seconds.
	Start float64 `json:"start"`
	// Phase is the blocklife phase-1 length in seconds.
	Phase float64 `json:"phase"`
	// Margin is the blocklife end margin in seconds.
	Margin float64 `json:"margin"`
}

// Default returns the spec for kind with every option at the flag
// defaults nfsanalyze documents.
func Default(kind string) Spec {
	return Spec{Kind: kind, Window: 10, Jump: 10, Phase: workload.Day, Margin: workload.Day}
}

// The peak kind counts the file instances of trace hours 9–17 of the
// first day.
const peakFrom, peakTo = 9 * workload.Hour, 17 * workload.Hour

// kind is one catalog entry: how a Spec builds the kind's one analyzer,
// its table as text and, where the kind has one, its table as JSON
// values. Both printers read the analyzer they are handed — the one
// build made, or a snapshot's fork of it.
type kind struct {
	name  string
	build func(spec Spec) pipeline.Analyzer
	text  func(w io.Writer, a pipeline.Analyzer, spec Spec, stats pipeline.Stats, join core.JoinStats)
	json  func(a pipeline.Analyzer) any
}

// catalog holds every kind, in the order nfsmond registers the ones it
// serves.
var catalog = []kind{{
	name:  "summary",
	build: func(Spec) pipeline.Analyzer { return &pipeline.SummaryAnalyzer{} },
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, stats pipeline.Stats, join core.JoinStats) {
		sum := a.(*pipeline.SummaryAnalyzer).Result
		sum.Days = Days(stats)
		fmt.Fprintln(w, sum)
		fmt.Fprintf(w, "join: %d calls, %d replies, %d unmatched calls, %d orphan replies (loss est %.2f%%)\n",
			join.Calls, join.Replies, join.UnmatchedCalls, join.OrphanReplies, 100*join.LossEstimate())
	},
	json: func(a pipeline.Analyzer) any { return SummaryJSON(a.(*pipeline.SummaryAnalyzer).Result) },
}, {
	name:  "hierarchy",
	build: func(Spec) pipeline.Analyzer { return &pipeline.HierarchyAnalyzer{Warmup: 600} },
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, _ pipeline.Stats, _ core.JoinStats) {
		fmt.Fprintf(w, "hierarchy coverage after 10min warmup: %.2f%%\n", 100*a.(*pipeline.HierarchyAnalyzer).Coverage)
	},
	json: func(a pipeline.Analyzer) any {
		return map[string]any{"coverage": a.(*pipeline.HierarchyAnalyzer).Coverage}
	},
}, {
	name: "runs",
	build: func(spec Spec) pipeline.Analyzer {
		return &pipeline.RunsAnalyzer{Config: analysis.RunConfig{
			ReorderWindow: spec.Window / 1000, IdleGap: 30, JumpBlocks: spec.Jump}}
	},
	text: func(w io.Writer, a pipeline.Analyzer, spec Spec, _ pipeline.Stats, _ core.JoinStats) {
		tab := a.(*pipeline.RunsAnalyzer).Table()
		fmt.Fprintf(w, "runs=%d window=%.0fms k=%d\n", tab.TotalRuns, spec.Window, spec.Jump)
		fmt.Fprintf(w, "reads  %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
			tab.ReadPct, tab.Read[0], tab.Read[1], tab.Read[2])
		fmt.Fprintf(w, "writes %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
			tab.WritePct, tab.Write[0], tab.Write[1], tab.Write[2])
		fmt.Fprintf(w, "r-w    %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
			tab.ReadWritePct, tab.ReadWrite[0], tab.ReadWrite[1], tab.ReadWrite[2])
	},
	json: func(a pipeline.Analyzer) any {
		tab := a.(*pipeline.RunsAnalyzer).Table()
		return map[string]any{
			"total_runs":  tab.TotalRuns,
			"read_pct":    tab.ReadPct,
			"write_pct":   tab.WritePct,
			"read_write":  tab.ReadWritePct,
			"read_split":  tab.Read,
			"write_split": tab.Write,
			"rw_split":    tab.ReadWrite,
		}
	},
}, {
	name: "blocklife",
	build: func(spec Spec) pipeline.Analyzer {
		return &pipeline.BlockLifeAnalyzer{Start: spec.Start, Phase: spec.Phase, Margin: spec.Margin}
	},
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, _ pipeline.Stats, _ core.JoinStats) {
		res := a.(*pipeline.BlockLifeAnalyzer).Result
		fmt.Fprintf(w, "births=%d (writes %.1f%%, extension %.1f%%)\n",
			res.Births, res.BirthPct(analysis.BirthWrite), res.BirthPct(analysis.BirthExtension))
		fmt.Fprintf(w, "deaths=%d (overwrite %.1f%%, truncate %.1f%%, delete %.1f%%)\n",
			res.Deaths, res.DeathPct(analysis.DeathOverwrite),
			res.DeathPct(analysis.DeathTruncate), res.DeathPct(analysis.DeathDelete))
		fmt.Fprintf(w, "end surplus %.1f%%; lifetime p50=%.1fs p90=%.1fs\n",
			res.EndSurplusPct(), res.Lifetimes.Percentile(50), res.Lifetimes.Percentile(90))
	},
	json: func(a pipeline.Analyzer) any {
		res := a.(*pipeline.BlockLifeAnalyzer).Result
		return map[string]any{
			"births":       res.Births,
			"deaths":       res.Deaths,
			"end_surplus":  res.EndSurplusPct(),
			"lifetime_p50": res.Lifetimes.Percentile(50),
			"lifetime_p90": res.Lifetimes.Percentile(90),
		}
	},
}, {
	name: "reorder",
	build: func(Spec) pipeline.Analyzer {
		return &pipeline.ReorderSweepAnalyzer{WindowsMS: []float64{0, 1, 2, 5, 10, 20, 50}}
	},
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, _ pipeline.Stats, _ core.JoinStats) {
		for _, p := range a.(*pipeline.ReorderSweepAnalyzer).Result {
			fmt.Fprintf(w, "window %5.0fms: %.2f%% swapped\n", p.WindowMS, p.SwappedPct)
		}
	},
	json: func(a pipeline.Analyzer) any { return a.(*pipeline.ReorderSweepAnalyzer).Result },
}, {
	// Open-ended hour buckets; the span (and so the bucket count) is
	// fixed only at render time, which lets the accumulation run
	// incrementally and serialize mid-stream.
	name:  "hourly",
	build: func(Spec) pipeline.Analyzer { return &pipeline.HourlyAnalyzer{} },
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, stats pipeline.Stats, _ core.JoinStats) {
		span := stats.Span()
		if span <= 0 {
			span = 3600
		}
		fixed := a.(*pipeline.HourlyAnalyzer).Result.FixedTo(span)
		for i, label := range []string{"all hours", "peak hours"} {
			fmt.Fprintf(w, "%s:\n", label)
			for _, row := range fixed.VarianceTable(i == 1) {
				fmt.Fprintf(w, "  %-20s mean=%12.0f stddev=%5.0f%%\n", row.Name, row.Mean, 100*row.RelStddev)
			}
		}
	},
}, {
	name:  "names",
	build: func(Spec) pipeline.Analyzer { return &pipeline.NamesAnalyzer{} },
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, stats pipeline.Stats, _ core.JoinStats) {
		rep := a.(*pipeline.NamesAnalyzer).ReportAt(stats.MaxT)
		for _, cs := range rep.PerCategory {
			if cs.Created == 0 {
				continue
			}
			fmt.Fprintf(w, "%-10s created=%6d deleted=%6d life_p50=%8.2fs size_p98=%10.0fB\n",
				cs.Category, cs.Created, cs.Deleted,
				cs.Lifetimes.Percentile(50), cs.Sizes.Percentile(98))
		}
		fmt.Fprintf(w, "locks %.1f%% of created-and-deleted; size prediction %.0f%%, lifetime prediction %.0f%%\n",
			100*rep.LockFracOfDeleted, 100*rep.SizeAccuracy, 100*rep.LifeAccuracy)
	},
}, {
	name:  "peak",
	build: func(Spec) pipeline.Analyzer { return &pipeline.PeakHourAnalyzer{From: peakFrom, To: peakTo} },
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, _ pipeline.Stats, _ core.JoinStats) {
		res := a.(*pipeline.PeakHourAnalyzer).Result
		fmt.Fprintf(w, "file instances in hours %.0f-%.0f: %d (locks %.1f%%, mailboxes %.1f%%)\n",
			peakFrom/workload.Hour, peakTo/workload.Hour, res.Instances, 100*res.LockFrac(), 100*res.MailboxFrac())
	},
	json: func(a pipeline.Analyzer) any {
		res := a.(*pipeline.PeakHourAnalyzer).Result
		return map[string]any{
			"instances": res.Instances,
			"locks":     res.Locks,
			"mailboxes": res.Mailboxes,
		}
	},
}, {
	name:  "mailbox",
	build: func(Spec) pipeline.Analyzer { return &pipeline.MailboxAnalyzer{} },
	text: func(w io.Writer, a pipeline.Analyzer, _ Spec, _ pipeline.Stats, _ core.JoinStats) {
		m := a.(*pipeline.MailboxAnalyzer)
		fmt.Fprintf(w, "mailbox bytes %d of %d (%.1f%%)\n", m.MailboxBytes, m.TotalBytes, 100*mailboxFraction(m))
	},
	json: func(a pipeline.Analyzer) any {
		m := a.(*pipeline.MailboxAnalyzer)
		return map[string]any{
			"mailbox_bytes": m.MailboxBytes,
			"total_bytes":   m.TotalBytes,
			"fraction":      mailboxFraction(m),
		}
	},
}}

// Kinds lists every analysis kind, in catalog order.
func Kinds() []string {
	var out []string
	for _, k := range catalog {
		out = append(out, k.name)
	}
	return out
}

// JSONKinds lists the kinds with a JSON form, which nfsmond serves, in
// catalog order.
func JSONKinds() []string {
	var out []string
	for _, k := range catalog {
		if k.json != nil {
			out = append(out, k.name)
		}
	}
	return out
}

// Days is what a summary's per-day rates divide by: the span of the
// operations in days, or an hour when they span none.
func Days(stats pipeline.Stats) float64 {
	if days := stats.Span() / workload.Day; days > 0 {
		return days
	}
	return 1.0 / 24
}

// SummaryJSON is the summary kind's JSON form of s.
func SummaryJSON(s *analysis.Summary) map[string]any {
	return map[string]any{
		"total_ops":     s.TotalOps,
		"read_ops":      s.ReadOps,
		"write_ops":     s.WriteOps,
		"metadata_ops":  s.MetadataOps,
		"bytes_read":    s.BytesRead,
		"bytes_written": s.BytesWritten,
		"rw_byte_ratio": s.ReadWriteByteRatio(),
		"rw_op_ratio":   s.ReadWriteOpRatio(),
		"metadata_frac": s.MetadataFraction(),
		"proc_counts":   s.ProcCounts.ByName(),
	}
}

func mailboxFraction(m *pipeline.MailboxAnalyzer) float64 {
	if m.TotalBytes == 0 {
		return 0
	}
	return float64(m.MailboxBytes) / float64(m.TotalBytes)
}

// Set is a Spec made concrete: the kind's analyzer and its printers.
// Every mode — plain run, resumed run, merged states, coordinator,
// remote worker, live snapshot — renders through the same printers,
// which is what keeps their outputs byte-identical.
type Set struct {
	Spec Spec
	// Analyzers holds the kind's one analyzer.
	Analyzers []pipeline.Analyzer
	kind      *kind
}

// Build constructs the analyzer set and printers for a spec.
func Build(spec Spec) (*Set, error) {
	for i := range catalog {
		if k := &catalog[i]; k.name == spec.Kind {
			return &Set{Spec: spec, Analyzers: []pipeline.Analyzer{k.build(spec)}, kind: k}, nil
		}
	}
	return nil, fmt.Errorf("unknown analysis %q", spec.Kind)
}

// Render prints the table of the set's own analyzer.
func (s *Set) Render(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
	s.Print(w, s.Analyzers[0], stats, join)
}

// Print prints the table of a, which is the set's analyzer or a fork of it.
func (s *Set) Print(w io.Writer, a pipeline.Analyzer, stats pipeline.Stats, join core.JoinStats) {
	s.kind.text(w, a, s.Spec, stats, join)
}

// JSON returns the table of a, which is the set's analyzer or a fork of
// it, as JSON values; nil when the kind has no JSON form.
func (s *Set) JSON(a pipeline.Analyzer) any {
	if s.kind.json == nil {
		return nil
	}
	return s.kind.json(a)
}

// Sequential reports whether the kind is order-dependent, meaning
// partial states only compose as a resume chain, never as an
// independent merge.
func (s *Set) Sequential() bool { return pipeline.IsSequential(s.Analyzers[0]) }

// Ingest is the one records → Joiner → Live loop: open the analyzers
// on the given shard count, optionally resume from a parent state, join
// calls to replies and feed every operation through. The direct run,
// -partial/-resume, the coordinator's in-process pieces and nfsworker
// all ingest here. It returns the still-open Live — Finish it to render,
// or hand it to State — and the join statistics, cumulative across the
// resume chain like every other reducer. ctx is checked every few
// thousand operations, so a deadline abandons the run promptly.
func (s *Set) Ingest(ctx context.Context, src core.RecordSource, shards int, parent *pipeline.Partial) (*pipeline.Live, core.JoinStats, error) {
	lv := pipeline.NewLive(pipeline.Config{Workers: shards}, s.Analyzers...)
	if parent != nil {
		if err := parent.Resume(lv); err != nil {
			lv.Abort()
			return nil, core.JoinStats{}, err
		}
	}
	j := pipeline.NewJoiner(src)
	if err := lv.FeedFrom(ctx, j); err != nil {
		return nil, core.JoinStats{}, err
	}
	join := j.Stats()
	if parent != nil {
		join.Merge(parent.Join)
	}
	return lv, join, nil
}

// State quiesces an ingested Live and serializes its partial state: a
// complete state file, checksummed and mergeable.
func (s *Set) State(lv *pipeline.Live, join core.JoinStats, parent *pipeline.Partial) ([]byte, error) {
	if lv.Quiesce().Ops == 0 {
		return nil, fmt.Errorf("no operations in trace")
	}
	var buf bytes.Buffer
	if err := pipeline.WritePartial(&buf, lv, s.Spec.Kind, join, parent); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RunFiles analyzes one piece — the trace files at paths, resumed from
// parent when the piece is a link in a chain — and returns its state.
// The ignored decoders parameter remains only because the benchmark's
// layer tracer (tools/perf/layers/dist.go) passes one, and goes when a
// benchmark change drops it.
func RunFiles(ctx context.Context, spec Spec, paths []string, _ int, parent *pipeline.Partial) ([]byte, error) {
	return run(ctx, spec, parent, func() (*pipeline.TraceSet, error) {
		return pipeline.OpenTraceSet(paths, core.IngestConfig{})
	})
}

// RunReaders is RunFiles over streams that are already open, one per
// trace file in trace-set order. It reads them as they produce bytes, so
// a piece still arriving over a connection is decoded, joined and
// reduced while it arrives; any read error (a cut stream's
// io.ErrUnexpectedEOF included) fails the run, never shortens it.
func RunReaders(ctx context.Context, spec Spec, files []io.Reader, parent *pipeline.Partial) ([]byte, error) {
	return run(ctx, spec, parent, func() (*pipeline.TraceSet, error) {
		return pipeline.OpenTraceReaders(files)
	})
}

// run is the one piece execution: build, open, ingest, serialize.
func run(ctx context.Context, spec Spec, parent *pipeline.Partial, open func() (*pipeline.TraceSet, error)) ([]byte, error) {
	set, err := Build(spec)
	if err != nil {
		return nil, err
	}
	ts, err := open()
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	lv, join, err := set.Ingest(ctx, ts, 1, parent)
	if err != nil {
		return nil, err
	}
	return set.State(lv, join, parent)
}

// decodeTask parses what a dispatch assignment carries as bytes: the
// spec as JSON and, for a link in a chain, the parent's serialized state.
func decodeTask(specJSON, parent []byte) (Spec, *pipeline.Partial, error) {
	var spec Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return spec, nil, fmt.Errorf("decoding analysis spec: %w", err)
	}
	if len(parent) == 0 {
		return spec, nil, nil
	}
	p, err := DecodeState(spec.Kind, parent)
	if err != nil {
		return spec, nil, fmt.Errorf("decoding parent state: %w", err)
	}
	return spec, p, nil
}

// RunTask is RunFiles for a piece described in bytes, which is how a
// dispatch.Task carries it: what the coordinator calls for the pieces it
// runs in its own process.
func RunTask(ctx context.Context, specJSON, parent []byte, files []string) ([]byte, error) {
	spec, pp, err := decodeTask(specJSON, parent)
	if err != nil {
		return nil, err
	}
	return RunFiles(ctx, spec, files, 0, pp)
}

// RunStream is RunReaders for a piece described in bytes: the
// dispatch.StreamRunner of nfsworker, handed the piece's files as the
// connection delivers them.
func RunStream(ctx context.Context, specJSON, parent []byte, files []io.Reader) ([]byte, error) {
	spec, pp, err := decodeTask(specJSON, parent)
	if err != nil {
		return nil, err
	}
	return RunReaders(ctx, spec, files, pp)
}

// DecodeState parses a serialized partial state and checks that it
// holds the kind analysis. The Partial keeps views into data, which
// must not change while it is in use.
func DecodeState(kind string, data []byte) (*pipeline.Partial, error) {
	p, err := pipeline.ParsePartial(data)
	if err != nil {
		return nil, err
	}
	if p.Label != kind {
		return nil, fmt.Errorf("state holds a %q analysis, not %q", p.Label, kind)
	}
	return p, nil
}
