package main

import (
	"bytes"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
)

// drain pulls every record from src, recycling each the way the
// streaming joiner would, and returns the count.
func drain(src core.RecordSource) (int64, error) {
	rc, _ := src.(core.RecordRecycler)
	var n int64
	for {
		r, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		if rc != nil {
			rc.Recycle(r)
		}
	}
}

// materialize decodes a whole trace into memory so that later stages
// can be timed without the decoder running beside them.
func materialize(data []byte) ([]*core.Record, error) {
	src, err := core.DetectSource(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var records []*core.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			return records, nil
		}
		if err != nil {
			return nil, err
		}
		records = append(records, r)
	}
}

// joinAll runs the pull joiner over in-memory records.
func joinAll(records []*core.Record) ([]*core.Op, core.JoinStats, error) {
	j := pipeline.NewJoiner(&core.SliceSource{Records: records})
	ops := make([]*core.Op, 0, len(records)/2)
	for {
		op, err := j.Next()
		if err == io.EOF {
			return ops, j.Stats(), nil
		}
		if err != nil {
			return nil, core.JoinStats{}, err
		}
		ops = append(ops, op)
	}
}

// decodeStages times the serial and the parallel decoder over the same
// bytes and returns the record count and the parallel decode's span.
func (t *tracer) decodeStages(root int, data []byte) (int64, int, error) {
	var records int64
	var stageErr error
	a0 := mallocs()
	id := t.rec.Time("core.decode_serial", root, func() int64 {
		src, err := core.DetectSource(bytes.NewReader(data))
		if err != nil {
			stageErr = err
			return 0
		}
		records, stageErr = drain(src)
		return records
	})
	if stageErr != nil {
		return 0, 0, stageErr
	}
	t.m["core.decode_allocs_per_rec"] = ratio(float64(mallocs()-a0), float64(records))
	t.perUnit("core.decode_serial_ns_per_rec", id)
	t.m["core.decode_mb_per_s"] = ratio(float64(len(data))/1e6, float64(t.rec.Spans[id].Dur())/1e9)

	id = t.rec.Time("core.decode_parallel", root, func() int64 {
		pr, err := core.NewParallelReader(bytes.NewReader(data), core.IngestConfig{})
		if err != nil {
			stageErr = err
			return 0
		}
		defer pr.Stop()
		var n int64
		n, stageErr = drain(pr)
		return n
	})
	t.perUnit("core.decode_parallel_ns_per_rec", id)
	return records, id, stageErr
}

// analyze replays analyze_text / analyze_binary: decode, join, route,
// reduce, finish and render one after another on the same input, then
// the whole pipeline un-staged the way nfsanalyze runs it.
func (t *tracer) analyze() error {
	data, err := os.ReadFile(t.job.Trace)
	if err != nil {
		return err
	}
	root := t.rec.Start("replay", -1)
	nrec, decodeID, err := t.decodeStages(root, data)
	if err != nil {
		return err
	}
	records, err := materialize(data)
	if err != nil {
		return err
	}

	if t.job.Workload == "analyze_binary" {
		// What the set-up's nfsconvert spends writing this trace.
		id := t.rec.Time("core.binary_write", root, func() int64 {
			bw := core.NewBinaryWriter(io.Discard)
			for _, r := range records {
				if err == nil {
					err = bw.Write(r)
				}
			}
			if err == nil {
				err = bw.Flush()
			}
			return nrec
		})
		if err != nil {
			return err
		}
		t.perUnit("core.binary_write_ns_per_rec", id)
	}

	var ops []*core.Op
	var join core.JoinStats
	a0 := mallocs()
	joinID := t.rec.Time("pipeline.join", root, func() int64 {
		ops, join, err = joinAll(records)
		return nrec
	})
	if err != nil {
		return err
	}
	t.m["pipeline.join_allocs_per_rec"] = ratio(float64(mallocs()-a0), float64(nrec))
	t.perUnit("pipeline.join_ns_per_rec", joinID)
	t.m["pipeline.join_matched_share"] = ratio(float64(join.Matched), float64(join.Calls))
	nops := int64(len(ops))

	routeID := t.rec.Time("pipeline.route", root, func() int64 {
		lv := pipeline.NewLive(pipeline.Config{})
		for _, op := range ops {
			lv.Feed(op)
		}
		lv.Finish()
		return nops
	})
	t.perUnit("pipeline.route_ns_per_op", routeID)

	set, err := jobspec.Build(jobspec.Default(t.job.Analysis))
	if err != nil {
		return err
	}
	lv := pipeline.NewLive(pipeline.Config{}, set.Analyzers...)
	feedID := t.rec.Time("pipeline.feed", root, func() int64 {
		for _, op := range ops {
			lv.Feed(op)
		}
		return nops
	})
	t.m["pipeline.reduce_ns_per_op"] = max(0, t.rec.Spans[feedID].PerUnit()-t.rec.Spans[routeID].PerUnit())
	var stats pipeline.Stats
	finishID := t.rec.Time("pipeline.finish", root, func() int64 {
		stats = lv.Finish()
		return nops
	})
	t.ms("pipeline.finish_ms", finishID)
	renderID := t.rec.Time("jobspec.render", root, func() int64 {
		set.Render(io.Discard, stats, join)
		return 1
	})
	t.ms("jobspec.render_ms", renderID)
	t.rec.End(root, nrec)
	records, ops = nil, nil

	// The un-staged view: the loop nfsanalyze's main runs, in this
	// process, with the stages overlapping as they do in the binary.
	t.rec.Pass = 1
	gc0, busy0 := cpuClasses()
	a0 = mallocs()
	inprocID := t.rec.Time("inproc", -1, func() int64 {
		err = runPipeline(t.job.Trace, t.job.Analysis)
		return nrec
	})
	if err != nil {
		return err
	}
	gc1, busy1 := cpuClasses()
	wall := float64(t.rec.Spans[inprocID].Dur())
	t.out.InprocWallS = wall / 1e9
	t.m["runtime.allocs_per_rec"] = ratio(float64(mallocs()-a0), float64(nrec))
	t.m["runtime.gc_cpu_share"] = ratio(gc1-gc0, busy1-busy0)

	var sum, largest float64
	for _, id := range []int{decodeID, joinID, feedID, finishID, renderID} {
		d := float64(t.rec.Spans[id].Dur())
		sum += d
		largest = max(largest, d)
	}
	t.m["pipeline.bottleneck_share"] = ratio(largest, wall)
	t.m["pipeline.stage_sum_over_wall"] = ratio(sum, wall)
	return nil
}

// runPipeline is nfsanalyze's plain path: trace set → joiner → live
// engine → render, at the default worker and decoder counts.
func runPipeline(path, kind string) error {
	set, err := jobspec.Build(jobspec.Default(kind))
	if err != nil {
		return err
	}
	ts, err := pipeline.OpenTraceSet([]string{path}, core.IngestConfig{})
	if err != nil {
		return err
	}
	defer ts.Close()
	lv := pipeline.NewLive(pipeline.Config{}, set.Analyzers...)
	j := pipeline.NewJoiner(ts)
	for {
		op, err := j.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			lv.Abort()
			return err
		}
		lv.Feed(op)
	}
	set.Render(io.Discard, lv.Finish(), j.Stats())
	return nil
}
