// Package jobspec names an analysis job completely — the -analysis
// kind plus every tuning option — in a form that crosses process and
// machine boundaries: the coordinator serializes a Spec as JSON into a
// dispatch assignment, and the remote worker rebuilds the exact same
// analyzer set from it. Construction, the ingest loop and the state
// codec calls live here once, which is what keeps every execution mode
// (direct run, resumed run, in-process piece, remote worker) rendering
// byte-identical tables: they all run the same analyzers through the
// same loop and the same render closure.
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
	// Kind is the analysis name: summary, runs, blocklife, hourly,
	// names, hierarchy, reorder.
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

// Set is a Spec made concrete: the pipeline analyzers to run and how
// to render their results. Every mode — plain run, resumed run, merged
// states, coordinator, remote worker — renders through the same
// closure, which is what keeps their outputs byte-identical.
type Set struct {
	Spec      Spec
	Analyzers []pipeline.Analyzer
	Render    func(w io.Writer, stats pipeline.Stats, join core.JoinStats)
}

// Sequential reports whether any analyzer is order-dependent, meaning
// partial states only compose as a resume chain, never as an
// independent merge.
func (s *Set) Sequential() bool {
	for _, a := range s.Analyzers {
		if pipeline.IsSequential(a) {
			return true
		}
	}
	return false
}

// Build constructs the analyzer set and renderer for a spec.
func Build(spec Spec) (*Set, error) {
	set := &Set{Spec: spec}
	switch spec.Kind {
	case "summary":
		sum := &pipeline.SummaryAnalyzer{}
		set.Analyzers = []pipeline.Analyzer{sum}
		set.Render = func(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
			days := stats.Span() / workload.Day
			if days <= 0 {
				days = 1.0 / 24
			}
			sum.Result.Days = days
			fmt.Fprintln(w, sum.Result)
			fmt.Fprintf(w, "join: %d calls, %d replies, %d unmatched calls, %d orphan replies (loss est %.2f%%)\n",
				join.Calls, join.Replies, join.UnmatchedCalls, join.OrphanReplies, 100*join.LossEstimate())
		}
	case "runs":
		ra := &pipeline.RunsAnalyzer{Config: analysis.RunConfig{
			ReorderWindow: spec.Window / 1000, IdleGap: 30, JumpBlocks: spec.Jump}}
		set.Analyzers = []pipeline.Analyzer{ra}
		set.Render = func(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
			tab := ra.Table()
			fmt.Fprintf(w, "runs=%d window=%.0fms k=%d\n", tab.TotalRuns, spec.Window, spec.Jump)
			fmt.Fprintf(w, "reads  %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
				tab.ReadPct, tab.Read[0], tab.Read[1], tab.Read[2])
			fmt.Fprintf(w, "writes %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
				tab.WritePct, tab.Write[0], tab.Write[1], tab.Write[2])
			fmt.Fprintf(w, "r-w    %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
				tab.ReadWritePct, tab.ReadWrite[0], tab.ReadWrite[1], tab.ReadWrite[2])
		}
	case "blocklife":
		bl := &pipeline.BlockLifeAnalyzer{Start: spec.Start, Phase: spec.Phase, Margin: spec.Margin}
		set.Analyzers = []pipeline.Analyzer{bl}
		set.Render = func(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
			res := bl.Result
			fmt.Fprintf(w, "births=%d (writes %.1f%%, extension %.1f%%)\n",
				res.Births, res.BirthPct(analysis.BirthWrite), res.BirthPct(analysis.BirthExtension))
			fmt.Fprintf(w, "deaths=%d (overwrite %.1f%%, truncate %.1f%%, delete %.1f%%)\n",
				res.Deaths, res.DeathPct(analysis.DeathOverwrite),
				res.DeathPct(analysis.DeathTruncate), res.DeathPct(analysis.DeathDelete))
			fmt.Fprintf(w, "end surplus %.1f%%; lifetime p50=%.1fs p90=%.1fs\n",
				res.EndSurplusPct(), res.Lifetimes.Percentile(50), res.Lifetimes.Percentile(90))
		}
	case "hierarchy":
		hier := &pipeline.HierarchyAnalyzer{Warmup: 600}
		set.Analyzers = []pipeline.Analyzer{hier}
		set.Render = func(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
			fmt.Fprintf(w, "hierarchy coverage after 10min warmup: %.2f%%\n", 100*hier.Coverage)
		}
	case "reorder":
		sweep := &pipeline.ReorderSweepAnalyzer{WindowsMS: []float64{0, 1, 2, 5, 10, 20, 50}}
		set.Analyzers = []pipeline.Analyzer{sweep}
		set.Render = func(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
			for _, p := range sweep.Result {
				fmt.Fprintf(w, "window %5.0fms: %.2f%% swapped\n", p.WindowMS, p.SwappedPct)
			}
		}
	case "hourly":
		// Open-ended hour buckets; the span (and so the bucket count) is
		// fixed only at render time, which lets the accumulation run
		// incrementally and serialize mid-stream.
		h := &pipeline.HourlyAnalyzer{}
		set.Analyzers = []pipeline.Analyzer{h}
		set.Render = func(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
			span := stats.Span()
			if span <= 0 {
				span = 3600
			}
			fixed := h.Result.FixedTo(span)
			for _, peak := range []bool{false, true} {
				label := "all hours"
				if peak {
					label = "peak hours"
				}
				fmt.Fprintf(w, "%s:\n", label)
				for _, row := range fixed.VarianceTable(peak) {
					fmt.Fprintf(w, "  %-20s mean=%12.0f stddev=%5.0f%%\n", row.Name, row.Mean, 100*row.RelStddev)
				}
			}
		}
	case "names":
		na := &pipeline.NamesAnalyzer{}
		set.Analyzers = []pipeline.Analyzer{na}
		set.Render = func(w io.Writer, stats pipeline.Stats, join core.JoinStats) {
			rep := na.ReportAt(stats.MaxT)
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
		}
	default:
		return nil, fmt.Errorf("unknown analysis %q", spec.Kind)
	}
	return set, nil
}

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
func RunFiles(ctx context.Context, spec Spec, paths []string, decoders int, parent *pipeline.Partial) ([]byte, error) {
	return run(ctx, spec, parent, func() (*pipeline.TraceSet, error) {
		return pipeline.OpenTraceSet(paths, core.IngestConfig{Decoders: decoders})
	})
}

// RunReaders is RunFiles over streams that are already open, one per
// trace file in trace-set order. It reads them as they produce bytes, so
// a piece still arriving over a connection is decoded, joined and
// reduced while it arrives; any read error (a cut stream's
// io.ErrUnexpectedEOF included) fails the run, never shortens it.
func RunReaders(ctx context.Context, spec Spec, files []io.Reader, decoders int, parent *pipeline.Partial) ([]byte, error) {
	return run(ctx, spec, parent, func() (*pipeline.TraceSet, error) {
		return pipeline.OpenTraceReaders(files, core.IngestConfig{Decoders: decoders})
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
func RunTask(ctx context.Context, specJSON, parent []byte, files []string, decoders int) ([]byte, error) {
	spec, pp, err := decodeTask(specJSON, parent)
	if err != nil {
		return nil, err
	}
	return RunFiles(ctx, spec, files, decoders, pp)
}

// RunStream is RunReaders for a piece described in bytes: the
// dispatch.StreamRunner of nfsworker, handed the piece's files as the
// connection delivers them.
func RunStream(ctx context.Context, specJSON, parent []byte, files []io.Reader, decoders int) ([]byte, error) {
	spec, pp, err := decodeTask(specJSON, parent)
	if err != nil {
		return nil, err
	}
	return RunReaders(ctx, spec, files, decoders, pp)
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
