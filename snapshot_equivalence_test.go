package repro

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
)

// This file pins the mid-stream snapshot contract end to end: a Fork
// taken while the live engine is ingesting, finished with the joiner's
// pending operations, must render every nfsanalyze table byte-identically
// to a batch run over the same record prefix — at every worker count —
// and the fork must not perturb the live run's final results. Forks
// share each file's head and its finished result (headDone) with the
// live engine, so the run tables themselves and the sweep points are
// compared too, not only the rendered tables.

// snapSets builds one set of every analysis kind from the catalog
// nfsanalyze and nfsmond build and print theirs from, so byte equality
// here is byte equality of the CLI tool's tables. Block life's phases
// are scaled to the trace, which is shorter than the day-long defaults.
func snapSets(t *testing.T, span float64) []*jobspec.Set {
	t.Helper()
	var sets []*jobspec.Set
	for _, kind := range jobspec.Kinds() {
		spec := jobspec.Default(kind)
		spec.Phase, spec.Margin = span/2, span/2
		set, err := jobspec.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	return sets
}

// setAnalyzers lists the sets' analyzers in set order.
func setAnalyzers(sets []*jobspec.Set) []pipeline.Analyzer {
	var out []pipeline.Analyzer
	for _, s := range sets {
		out = append(out, s.Analyzers...)
	}
	return out
}

// renderSets prints analyzers[i], the analyzer sets[i] built or a fork
// of it, through that set's printer. The analyzers must be closed
// (post-Run or post-Finish).
func renderSets(sets []*jobspec.Set, analyzers []pipeline.Analyzer, join core.JoinStats, stats pipeline.Stats) string {
	var sb strings.Builder
	for i, s := range sets {
		s.Print(&sb, analyzers[i], stats, join)
	}
	return sb.String()
}

// findAnalyzer returns the analyzer of type T among analyzers.
func findAnalyzer[T pipeline.Analyzer](t *testing.T, analyzers []pipeline.Analyzer) T {
	t.Helper()
	for _, a := range analyzers {
		if a, ok := a.(T); ok {
			return a
		}
	}
	var zero T
	t.Fatalf("no %T among the analyzers", zero)
	return zero
}

// batchPrefix runs the batch pipeline (pull joiner, as nfsanalyze does)
// over the first n records and renders the tables.
func batchPrefix(t *testing.T, cfg pipeline.Config, records []*core.Record, n int, span float64) (string, []pipeline.Analyzer) {
	t.Helper()
	sets := snapSets(t, span)
	j := pipeline.NewJoiner(&core.SliceSource{Records: records[:n]})
	stats, err := pipeline.Run(cfg, j, setAnalyzers(sets)...)
	if err != nil {
		t.Fatal(err)
	}
	return renderSets(sets, setAnalyzers(sets), j.Stats(), stats), setAnalyzers(sets)
}

// TestSnapshotMatchesBatchPrefix runs over CAMPUS, and over EECS, whose
// many data operations add thousands of accesses to the files' windows
// and heads between two cuts.
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
	fullWant, _ := batchPrefix(t, pipeline.Config{Workers: 1}, records, len(records), span)

	for _, workers := range []int{1, 2, 8} {
		cfg := pipeline.Config{Workers: workers}

		sets := snapSets(t, span)
		lv := pipeline.NewLive(cfg, setAnalyzers(sets)...)
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

				got := renderSets(sets, snap.Analyzers, join, stats)
				want, wb := batchPrefix(t, cfg, records, i, span)
				if got != want {
					t.Errorf("workers=%d cut=%d: snapshot differs from batch prefix\n--- snapshot ---\n%s--- batch ---\n%s",
						workers, i, got, want)
				}
				runs := findAnalyzer[*pipeline.RunsAnalyzer](t, snap.Analyzers).Result
				if wantRuns := findAnalyzer[*pipeline.RunsAnalyzer](t, wb).Result; !reflect.DeepEqual(runs, wantRuns) {
					t.Errorf("workers=%d cut=%d: snapshot run tables differ from batch prefix", workers, i)
				}
				pts := findAnalyzer[*pipeline.ReorderSweepAnalyzer](t, snap.Analyzers).Result
				if wantPts := findAnalyzer[*pipeline.ReorderSweepAnalyzer](t, wb).Result; !reflect.DeepEqual(pts, wantPts) {
					t.Errorf("workers=%d cut=%d: snapshot sweep %v, batch %v", workers, i, pts, wantPts)
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
		got := renderSets(sets, setAnalyzers(sets), j.Stats(), stats)
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
	scale.Days = 0.5
	records := GenerateCampusRecords(scale)
	span := records[len(records)-1].Time - records[0].Time

	cfg := pipeline.Config{Workers: 2}
	sets := snapSets(t, span)
	lv := pipeline.NewLive(cfg, setAnalyzers(sets)...)
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
	got := renderSets(sets, snap.Analyzers, j.Stats(), stats)
	want, _ := batchPrefix(t, cfg, records, len(records), span)
	if got != want {
		t.Errorf("drained snapshot differs from batch\n--- snapshot ---\n%s--- batch ---\n%s", got, want)
	}
	lv.Abort()
}
