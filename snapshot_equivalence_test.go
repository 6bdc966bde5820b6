package repro

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// This file pins the mid-stream snapshot contract end to end: a Fork
// taken while the live engine is ingesting, finished with the joiner's
// pending operations, must render every nfsanalyze table byte-identically
// to a batch run over the same record prefix — at every worker count —
// and the fork must not perturb the live run's final results. Forks of
// one Live share its run-detection and sweep finish caches, so the runs
// themselves and the sweep points are compared too, not only the tables.

// snapBundle is one of each streaming analyzer, configured identically
// on the snapshot and batch sides.
type snapBundle struct {
	sum    *pipeline.SummaryAnalyzer
	hourly *pipeline.HourlyAnalyzer
	runs   *pipeline.RunsAnalyzer
	bl     *pipeline.BlockLifeAnalyzer
	sweep  *pipeline.ReorderSweepAnalyzer
	hier   *pipeline.HierarchyAnalyzer
}

func newSnapBundle(span float64) *snapBundle {
	return &snapBundle{
		sum:    &pipeline.SummaryAnalyzer{},
		hourly: &pipeline.HourlyAnalyzer{},
		runs:   &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(10)},
		bl:     &pipeline.BlockLifeAnalyzer{Start: 0, Phase: span / 2, Margin: span / 2},
		sweep:  &pipeline.ReorderSweepAnalyzer{WindowsMS: []float64{0, 5, 10}},
		hier:   &pipeline.HierarchyAnalyzer{Warmup: 600},
	}
}

func (b *snapBundle) list() []pipeline.Analyzer {
	return []pipeline.Analyzer{b.sum, b.hourly, b.runs, b.bl, b.sweep, b.hier}
}

// renderAnalyses renders every analyzer with nfsanalyze's exact output
// formats, so byte equality here is byte equality of the CLI tool's
// tables. The analyzers must be closed (post-Run or post-Finish).
func renderAnalyses(analyzers []pipeline.Analyzer, join core.JoinStats, stats pipeline.Stats) string {
	var sb strings.Builder
	days, span := stats.Span()/workload.Day, stats.Span()
	if days <= 0 {
		days, span = 1.0/24, 3600
	}
	for _, a := range analyzers {
		switch a := a.(type) {
		case *pipeline.SummaryAnalyzer:
			a.Result.Days = days
			fmt.Fprintln(&sb, a.Result)
			fmt.Fprintf(&sb, "join: %d calls, %d replies, %d unmatched calls, %d orphan replies (loss est %.2f%%)\n",
				join.Calls, join.Replies, join.UnmatchedCalls, join.OrphanReplies, 100*join.LossEstimate())
		case *pipeline.HourlyAnalyzer:
			fixed := a.Result.FixedTo(span)
			for _, peak := range []bool{false, true} {
				for _, row := range fixed.VarianceTable(peak) {
					fmt.Fprintf(&sb, "  %-20s mean=%12.0f stddev=%5.0f%%\n", row.Name, row.Mean, 100*row.RelStddev)
				}
			}
		case *pipeline.RunsAnalyzer:
			tab := a.Table()
			fmt.Fprintf(&sb, "runs=%d\n", tab.TotalRuns)
			fmt.Fprintf(&sb, "reads  %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
				tab.ReadPct, tab.Read[0], tab.Read[1], tab.Read[2])
			fmt.Fprintf(&sb, "writes %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
				tab.WritePct, tab.Write[0], tab.Write[1], tab.Write[2])
			fmt.Fprintf(&sb, "r-w    %5.1f%% of runs: entire %5.1f%% seq %5.1f%% random %5.1f%%\n",
				tab.ReadWritePct, tab.ReadWrite[0], tab.ReadWrite[1], tab.ReadWrite[2])
		case *pipeline.BlockLifeAnalyzer:
			res := a.Result
			fmt.Fprintf(&sb, "births=%d (writes %.1f%%, extension %.1f%%)\n",
				res.Births, res.BirthPct(analysis.BirthWrite), res.BirthPct(analysis.BirthExtension))
			fmt.Fprintf(&sb, "deaths=%d (overwrite %.1f%%, truncate %.1f%%, delete %.1f%%)\n",
				res.Deaths, res.DeathPct(analysis.DeathOverwrite),
				res.DeathPct(analysis.DeathTruncate), res.DeathPct(analysis.DeathDelete))
			fmt.Fprintf(&sb, "end surplus %.1f%%; lifetime p50=%.1fs p90=%.1fs\n",
				res.EndSurplusPct(), res.Lifetimes.Percentile(50), res.Lifetimes.Percentile(90))
		case *pipeline.ReorderSweepAnalyzer:
			for _, p := range a.Result {
				fmt.Fprintf(&sb, "window %5.0fms: %.2f%% swapped\n", p.WindowMS, p.SwappedPct)
			}
		case *pipeline.HierarchyAnalyzer:
			fmt.Fprintf(&sb, "hierarchy coverage after 10min warmup: %.2f%%\n", 100*a.Coverage)
		}
	}
	return sb.String()
}

// batchPrefix runs the batch pipeline (pull joiner, as nfsanalyze does)
// over the first n records and renders the tables.
func batchPrefix(cfg pipeline.Config, records []*core.Record, n int, span float64) (string, *snapBundle, error) {
	b := newSnapBundle(span)
	j := pipeline.NewJoiner(&core.SliceSource{Records: records[:n]})
	stats, err := pipeline.Run(cfg, j, b.list()...)
	if err != nil {
		return "", nil, err
	}
	return renderAnalyses(b.list(), j.Stats(), stats), b, nil
}

// TestSnapshotMatchesBatchPrefix runs over CAMPUS, and over EECS, whose
// many data operations put thousands of accesses into the finish caches
// between two cuts.
func TestSnapshotMatchesBatchPrefix(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.5
	t.Run("campus", func(t *testing.T) { snapshotMatchesBatchPrefix(t, GenerateCampusRecords(scale)) })
	t.Run("eecs", func(t *testing.T) { snapshotMatchesBatchPrefix(t, GenerateEECSRecords(scale)) })
}

func snapshotMatchesBatchPrefix(t *testing.T, records []*core.Record) {
	if len(records) < 100 {
		t.Fatalf("only %d records generated", len(records))
	}
	span := records[len(records)-1].Time - records[0].Time

	// Twenty evenly spaced cuts, as many as the benchmark's monitor
	// scrapes: each fork after the first finds the caches filled by the
	// ones before.
	const scrapes = 20
	var cuts []int
	for k := 1; k <= scrapes; k++ {
		cuts = append(cuts, len(records)*k/(scrapes+1))
	}

	// The no-fork reference for the full stream, used to prove forks
	// don't perturb the live run.
	fullWant, _, err := batchPrefix(pipeline.Config{Workers: 1}, records, len(records), span)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		cfg := pipeline.Config{Workers: workers}

		b := newSnapBundle(span)
		lv := pipeline.NewLive(cfg, b.list()...)
		j := pipeline.NewPushJoiner()

		nextCut := 0
		var buf []*core.Op
		for i, rec := range records {
			if nextCut < len(cuts) && i == cuts[nextCut] {
				snap, err := lv.Fork()
				if err != nil {
					t.Fatal(err)
				}
				pend := j.PendingOps()
				join := j.StatsIfDrained()
				for _, op := range pend {
					snap.Feed(op)
				}
				stats := snap.Finish()

				got := renderAnalyses(snap.Analyzers, join, stats)
				want, wb, err := batchPrefix(cfg, records, i, span)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("workers=%d cut=%d: snapshot differs from batch prefix\n--- snapshot ---\n%s--- batch ---\n%s",
						workers, i, got, want)
				}
				if runs := snap.Analyzers[2].(*pipeline.RunsAnalyzer).Result; !reflect.DeepEqual(runs, wb.runs.Result) {
					t.Errorf("workers=%d cut=%d: snapshot runs differ from batch prefix", workers, i)
				}
				if pts := snap.Analyzers[4].(*pipeline.ReorderSweepAnalyzer).Result; !reflect.DeepEqual(pts, wb.sweep.Result) {
					t.Errorf("workers=%d cut=%d: snapshot sweep %v, batch %v", workers, i, pts, wb.sweep.Result)
				}
				nextCut++
			}
			buf = j.Push(rec, buf[:0])
			for _, op := range buf {
				lv.Feed(op)
			}
		}

		// Continue to EOF: the forks must not have perturbed the live
		// run — its final tables equal the never-forked batch run.
		for _, op := range j.Drain(nil) {
			lv.Feed(op)
		}
		stats := lv.Finish()
		got := renderAnalyses(b.list(), j.Stats(), stats)
		if got != fullWant {
			t.Errorf("workers=%d: post-fork live run differs from batch over the full stream\n--- live ---\n%s--- batch ---\n%s",
				workers, got, fullWant)
		}
	}
}

// TestSnapshotOfDrainedStream forks after the joiner drained (the
// daemon's static-input mode) and checks the snapshot equals the batch
// run over everything.
func TestSnapshotOfDrainedStream(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	records := GenerateCampusRecords(scale)
	span := records[len(records)-1].Time - records[0].Time

	cfg := pipeline.Config{Workers: 2}
	b := newSnapBundle(span)
	lv := pipeline.NewLive(cfg, b.list()...)
	j := pipeline.NewPushJoiner()
	var buf []*core.Op
	for _, rec := range records {
		buf = j.Push(rec, buf[:0])
		for _, op := range buf {
			lv.Feed(op)
		}
	}
	for _, op := range j.Drain(nil) {
		lv.Feed(op)
	}

	snap, err := lv.Fork()
	if err != nil {
		t.Fatal(err)
	}
	stats := snap.Finish()
	got := renderAnalyses(snap.Analyzers, j.Stats(), stats)
	want, _, err := batchPrefix(cfg, records, len(records), span)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("drained snapshot differs from batch\n--- snapshot ---\n%s--- batch ---\n%s", got, want)
	}
	lv.Abort()
}
