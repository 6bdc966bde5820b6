package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
)

// pieceRunner is nfsworker's runner for a mergeable analysis (pieces
// carry no parent state): rebuild the analysis from the spec and run it
// over the spooled files.
func pieceRunner(ctx context.Context, specJSON, parent []byte, files []string, decoders int) ([]byte, error) {
	var spec jobspec.Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, err
	}
	return jobspec.RunFiles(ctx, spec, files, decoders, nil)
}

// startWorkers serves n in-process dispatch workers on loopback and
// returns their addresses and a function that drains them.
func startWorkers(n int, tempDir string) ([]string, func(), error) {
	var addrs []string
	var stops []func()
	stop := func() {
		for _, s := range stops {
			s()
		}
	}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		w := &dispatch.Worker{Runner: pieceRunner, TempDir: tempDir}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = w.Serve(lis) // nil after Drain; a listener error ends the worker either way
		}()
		addrs = append(addrs, lis.Addr().String())
		stops = append(stops, func() { w.Drain(); <-served })
	}
	return addrs, stop, nil
}

// dist replays analyze_dist: what the remote coordinator adds on top of
// the plain pipeline — per-piece execution, state encode and decode,
// blob transport and supervision, and the merge.
func (t *tracer) dist() error {
	ctx := context.Background()
	spec := jobspec.Default(t.job.Analysis)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	const workers = 2
	// One file per piece, as the workload's -workers makes them.
	groups := make([][]string, len(t.job.Pieces))
	for i, p := range t.job.Pieces {
		groups[i] = []string{p}
	}
	npieces := float64(len(groups))

	root := t.rec.Start("replay", -1)
	var nrec int64
	id := t.rec.Time("core.traceset_merge", root, func() int64 {
		var ts *pipeline.TraceSet
		ts, err = pipeline.OpenTraceSet(t.job.Pieces, core.IngestConfig{})
		if err != nil {
			return 0
		}
		defer ts.Close()
		nrec, err = drain(ts)
		return nrec
	})
	if err != nil {
		return err
	}
	t.perUnit("core.traceset_merge_ns_per_rec", id)

	var blobs [][]byte
	var runfilesNS, stateBytes, fileBytes float64
	for _, g := range groups {
		var blob []byte
		id := t.rec.Time("jobspec.runfiles", root, func() int64 {
			blob, err = jobspec.RunFiles(ctx, spec, g, 0, nil)
			return 1
		})
		if err != nil {
			return err
		}
		blobs = append(blobs, blob)
		runfilesNS += float64(t.rec.Spans[id].Dur())
		stateBytes += float64(len(blob))
		for _, p := range g {
			st, err := os.Stat(p)
			if err != nil {
				return err
			}
			fileBytes += float64(st.Size())
		}
	}
	t.m["jobspec.runfiles_ms_per_piece"] = runfilesNS / 1e6 / npieces
	t.m["state.bytes_per_piece"] = stateBytes / npieces

	// State encode alone: rebuild each piece's quiesced engine untimed,
	// then time only the serialization RunFiles ends with.
	var writeNS float64
	for _, g := range groups {
		lv, join, err := quiescedPiece(spec, g)
		if err != nil {
			return err
		}
		id := t.rec.Time("pipeline.write_partial", root, func() int64 {
			err = pipeline.WritePartial(io.Discard, lv, spec.Kind, join, nil)
			return 1
		})
		if err != nil {
			return err
		}
		writeNS += float64(t.rec.Spans[id].Dur())
	}
	t.m["pipeline.write_partial_ms"] = writeNS / 1e6 / npieces

	partials := make([]*pipeline.Partial, len(blobs))
	var readNS float64
	for i, blob := range blobs {
		id := t.rec.Time("pipeline.read_partial", root, func() int64 {
			partials[i], err = pipeline.ReadPartial(bytes.NewReader(blob))
			return 1
		})
		if err != nil {
			return err
		}
		readNS += float64(t.rec.Spans[id].Dur())
	}
	t.m["pipeline.read_partial_ms"] = readNS / 1e6 / npieces

	set, err := jobspec.Build(spec)
	if err != nil {
		return err
	}
	id = t.rec.Time("pipeline.merge_partials", root, func() int64 {
		_, _, err = pipeline.MergePartials(set.Analyzers, partials)
		return int64(len(partials))
	})
	if err != nil {
		return err
	}
	t.ms("pipeline.merge_partials_ms", id)

	addrs, stop, err := startWorkers(workers, t.job.TempDir)
	if err != nil {
		return err
	}
	defer stop()
	tasks := make([]dispatch.Task, len(groups))
	for i, g := range groups {
		tasks[i] = dispatch.Task{ID: i, Spec: specJSON, Files: g}
	}
	var rstats dispatch.RunStats
	var results []dispatch.Result
	id = t.rec.Time("dispatch.run", root, func() int64 {
		results, rstats, err = dispatch.Run(ctx, dispatch.Config{Addrs: addrs}, tasks)
		return int64(len(tasks))
	})
	if err != nil {
		return err
	}
	if len(results) != len(tasks) {
		return fmt.Errorf("dispatch: %d of %d pieces completed", len(results), len(tasks))
	}
	t.rec.End(root, nrec)
	runMS := float64(t.rec.Spans[id].Dur()) / 1e6
	t.m["dispatch.run_ms"] = runMS
	// The pieces run on the workers in parallel; what dispatch.Run
	// takes beyond their share of the execution is transport and
	// supervision.
	t.m["dispatch.transport_overhead_ms"] = max(0, runMS-runfilesNS/1e6/workers)
	t.m["dispatch.bytes_shipped"] = fileBytes + stateBytes
	t.m["dispatch.assignments"] = float64(rstats.Dispatched)
	t.m["dispatch.retries"] = float64(rstats.Retries)
	t.m["dispatch.speculations"] = float64(rstats.Speculations)

	// Un-staged: the remote coordinator's whole path in one go.
	t.rec.Pass = 1
	id = t.rec.Time("inproc", -1, func() int64 {
		err = coordinate(ctx, spec, addrs, tasks)
		return nrec
	})
	t.out.InprocWallS = float64(t.rec.Spans[id].Dur()) / 1e9
	return err
}

// quiescedPiece runs one piece through joiner and engine and stops
// short of serializing, as RunFiles does before WritePartial.
func quiescedPiece(spec jobspec.Spec, files []string) (*pipeline.Live, core.JoinStats, error) {
	set, err := jobspec.Build(spec)
	if err != nil {
		return nil, core.JoinStats{}, err
	}
	ts, err := pipeline.OpenTraceSet(files, core.IngestConfig{})
	if err != nil {
		return nil, core.JoinStats{}, err
	}
	defer ts.Close()
	lv := pipeline.NewLive(pipeline.Config{Workers: 1}, set.Analyzers...)
	j := pipeline.NewJoiner(ts)
	for {
		op, err := j.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			lv.Abort()
			return nil, core.JoinStats{}, err
		}
		lv.Feed(op)
	}
	lv.Quiesce()
	return lv, j.Stats(), nil
}

// coordinate is runRemoteCoordinator's path for a mergeable analysis:
// dispatch every piece, decode the states, merge, render.
func coordinate(ctx context.Context, spec jobspec.Spec, addrs []string, tasks []dispatch.Task) error {
	set, err := jobspec.Build(spec)
	if err != nil {
		return err
	}
	results, _, err := dispatch.Run(ctx, dispatch.Config{Addrs: addrs}, tasks)
	if err != nil {
		return err
	}
	if len(results) != len(tasks) {
		return fmt.Errorf("dispatch: %d of %d pieces completed", len(results), len(tasks))
	}
	partials := make([]*pipeline.Partial, len(results))
	for _, res := range results {
		p, err := pipeline.ReadPartial(bytes.NewReader(res.State))
		if err != nil {
			return err
		}
		partials[res.TaskID] = p
	}
	stats, join, err := pipeline.MergePartials(set.Analyzers, partials)
	if err != nil {
		return err
	}
	set.Render(io.Discard, stats, join)
	return nil
}
