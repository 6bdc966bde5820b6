package main

import (
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/window"
	"repro/internal/workload"
)

// monitorAnalyzers is nfsmond's `-analyses all` set, in its
// registration order.
func monitorAnalyzers() []pipeline.Analyzer {
	return []pipeline.Analyzer{
		&pipeline.SummaryAnalyzer{},
		&pipeline.HierarchyAnalyzer{Warmup: 600},
		&pipeline.RunsAnalyzer{Config: analysis.RunConfig{ReorderWindow: 0.01, IdleGap: 30, JumpBlocks: 10}},
		&pipeline.BlockLifeAnalyzer{Phase: workload.Day, Margin: workload.Day},
		&pipeline.ReorderSweepAnalyzer{WindowsMS: []float64{0, 1, 2, 5, 10, 20, 50}},
		&pipeline.PeakHourAnalyzer{From: 9 * workload.Hour, To: 17 * workload.Hour},
		&pipeline.MailboxAnalyzer{},
	}
}

// scrapes is how many snapshots the monitor takes during ingest, the
// same 20 positions the end-to-end writer scrapes at.
const scrapes = 20

// live replays live_monitor: the push joiner, the engine with every
// reducer, the window ring, and the fork the scrape handler takes.
func (t *tracer) live() error {
	data, err := os.ReadFile(t.job.Trace)
	if err != nil {
		return err
	}
	records, err := materialize(data)
	if err != nil {
		return err
	}
	nrec := int64(len(records))

	root := t.rec.Start("replay", -1)
	var ops []*core.Op
	id := t.rec.Time("pipeline.push_join", root, func() int64 {
		j := pipeline.NewPushJoiner()
		var buf []*core.Op
		for _, r := range records {
			buf = j.Push(r, buf[:0])
			ops = append(ops, buf...)
		}
		ops = j.Drain(ops)
		return nrec
	})
	t.perUnit("pipeline.push_join_ns_per_rec", id)
	nops := int64(len(ops))

	id = t.rec.Time("pipeline.live_feed", root, func() int64 {
		lv := pipeline.NewLive(pipeline.Config{}, monitorAnalyzers()...)
		for _, op := range ops {
			lv.Feed(op)
		}
		lv.Finish()
		return nops
	})
	t.perUnit("pipeline.live_feed_ns_per_op", id)

	id = t.rec.Time("window.ring_add", root, func() int64 {
		ring := window.NewRing(60, 60)
		for _, op := range ops {
			ring.Add(op)
		}
		return nops
	})
	t.perUnit("window.ring_add_ns_per_op", id)
	t.rec.End(root, nrec)
	ops = nil

	// Un-staged: nfsmond's ingest loop with a report taken at each
	// scrape position — Fork under the ingest lock, then the pending
	// ops and Finish on the copy.
	t.rec.Pass = 1
	var forkMS, finishMS []float64
	ingest := t.rec.Start("inproc", -1)
	j := pipeline.NewPushJoiner()
	lv := pipeline.NewLive(pipeline.Config{}, monitorAnalyzers()...)
	ring := window.NewRing(60, 60)
	var buf []*core.Op
	var fed int64
	every := max(len(records)/scrapes, 1)
	for i, r := range records {
		buf = j.Push(r, buf[:0])
		for _, op := range buf {
			lv.Feed(op)
			ring.Add(op)
		}
		fed += int64(len(buf))
		if (i+1)%every != 0 {
			continue
		}
		var snap *pipeline.Snapshot
		id := t.rec.Time("pipeline.fork", ingest, func() int64 {
			snap, err = lv.Fork()
			return fed
		})
		if err != nil {
			lv.Abort()
			return err
		}
		forkMS = append(forkMS, float64(t.rec.Spans[id].Dur())/1e6)
		id = t.rec.Time("pipeline.snapshot_finish", ingest, func() int64 {
			for _, op := range j.PendingOps() {
				snap.Feed(op)
			}
			snap.Finish()
			return fed
		})
		finishMS = append(finishMS, float64(t.rec.Spans[id].Dur())/1e6)
	}
	for _, op := range j.Drain(nil) {
		lv.Feed(op)
		ring.Add(op)
	}
	lv.Finish()
	t.rec.End(ingest, nrec)
	t.out.InprocWallS = float64(t.rec.Spans[ingest].Dur()) / 1e9

	sort.Float64s(forkMS)
	sort.Float64s(finishMS)
	t.m["pipeline.fork_p50_ms"] = forkMS[len(forkMS)/2]
	t.m["pipeline.fork_max_ms"] = forkMS[len(forkMS)-1]
	t.m["pipeline.snapshot_finish_ms"] = finishMS[len(finishMS)/2]
	return nil
}
