package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

func TestForkAfterFinishErrors(t *testing.T) {
	lv := NewLive(Config{Workers: 1}, &SummaryAnalyzer{})
	lv.Finish()
	if _, err := lv.Fork(); err == nil {
		t.Fatal("Fork after Finish should error")
	}
}

// TestSnapshotIsolation checks both directions of independence: ops fed
// to the live engine after the fork don't leak into the snapshot, and
// ops fed to the snapshot continuation don't leak into the live run.
func TestSnapshotIsolation(t *testing.T) {
	ops := genOps(t, 0.5)
	if len(ops) < 100 {
		t.Fatalf("only %d ops", len(ops))
	}
	half := len(ops) / 2

	sum := &SummaryAnalyzer{}
	lv := NewLive(Config{Workers: 4}, sum)
	for _, op := range ops[:half] {
		lv.Feed(op)
	}
	snap, err := lv.Fork()
	if err != nil {
		t.Fatal(err)
	}

	// Diverge: the live run sees the rest, the snapshot sees nothing.
	for _, op := range ops[half:] {
		lv.Feed(op)
	}
	snapStats := snap.Finish()
	liveStats := lv.Finish()

	if snapStats.Ops != int64(half) {
		t.Errorf("snapshot ops = %d, want %d", snapStats.Ops, half)
	}
	if liveStats.Ops != int64(len(ops)) {
		t.Errorf("live ops = %d, want %d", liveStats.Ops, len(ops))
	}
	fork := snap.Analyzers[0].(*SummaryAnalyzer)
	if fork.Result.TotalOps != int64(half) {
		t.Errorf("snapshot summary counted %d ops, want %d", fork.Result.TotalOps, half)
	}
	if sum.Result.TotalOps != int64(len(ops)) {
		t.Errorf("live summary counted %d ops, want %d", sum.Result.TotalOps, len(ops))
	}
}

// TestSnapshotContinuation feeds the second half of the stream to the
// snapshot instead, which must then equal a full sequential run.
func TestSnapshotContinuation(t *testing.T) {
	ops := genOps(t, 0.5)
	half := len(ops) / 2

	sum := &SummaryAnalyzer{}
	lv := NewLive(Config{Workers: 3}, sum)
	for _, op := range ops[:half] {
		lv.Feed(op)
	}
	snap, err := lv.Fork()
	if err != nil {
		t.Fatal(err)
	}
	lv.Abort()
	for _, op := range ops[half:] {
		snap.Feed(op)
	}
	stats := snap.Finish()
	if stats.Ops != int64(len(ops)) {
		t.Fatalf("continuation ops = %d, want %d", stats.Ops, len(ops))
	}
	fork := snap.Analyzers[0].(*SummaryAnalyzer)

	want := &SummaryAnalyzer{}
	RunSlice(Config{Workers: 1}, ops, want)
	if fork.Result.TotalOps != want.Result.TotalOps ||
		fork.Result.BytesRead != want.Result.BytesRead ||
		fork.Result.BytesWritten != want.Result.BytesWritten ||
		fork.Result.ProcCounts != want.Result.ProcCounts {
		t.Errorf("continuation result diverged:\ngot  %+v\nwant %+v", fork.Result, want.Result)
	}
}

// TestRepeatedForks takes several forks from one live run; each must
// reflect exactly the prefix fed before it.
func TestRepeatedForks(t *testing.T) {
	ops := genOps(t, 0.5)
	lv := NewLive(Config{Workers: 2}, &SummaryAnalyzer{})
	step := len(ops) / 4
	var fed int
	for cut := step; cut <= 3*step; cut += step {
		for _, op := range ops[fed:cut] {
			lv.Feed(op)
		}
		fed = cut
		snap, err := lv.Fork()
		if err != nil {
			t.Fatal(err)
		}
		snap.Finish()
		got := snap.Analyzers[0].(*SummaryAnalyzer).Result.TotalOps
		if got != int64(cut) {
			t.Fatalf("fork at %d ops reported %d", cut, got)
		}
	}
	lv.Abort()
}

// endlessOps never reaches io.EOF and cancels its context after a
// while, the shape of a piece that outlives its deadline.
type endlessOps struct {
	n, cancelAt int
	cancel      context.CancelFunc
	fail        error
}

func (s *endlessOps) Next() (*core.Op, error) {
	if s.n++; s.n == s.cancelAt {
		if s.fail != nil {
			return nil, s.fail
		}
		s.cancel()
	}
	return &core.Op{T: float64(s.n), Proc: core.ProcGetattr, FH: 1}, nil
}

// TestFeedFromStops pins the three ways the shared ingest loop ends
// early: a context already done feeds nothing, a context cancelled
// mid-stream is noticed within one check interval, and a source error
// comes back as is — each leaving the Live aborted, not running.
func TestFeedFromStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	src := &endlessOps{cancelAt: 10, cancel: cancel}
	lv := NewLive(Config{Workers: 2}, &SummaryAnalyzer{})
	if err := lv.FeedFrom(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-stream cancel: got %v", err)
	}
	if got := lv.Stats().Ops; got < 9 || got > cancelCheckEvery {
		t.Fatalf("fed %d ops after a cancel at op 10; the check interval is %d", got, cancelCheckEvery)
	}
	if _, err := lv.Fork(); err == nil {
		t.Fatal("Live still running after FeedFrom gave up")
	}

	lv = NewLive(Config{Workers: 2}, &SummaryAnalyzer{})
	if err := lv.FeedFrom(ctx, src); !errors.Is(err, context.Canceled) || lv.Stats().Ops != 0 {
		t.Fatalf("context already done: got %v after %d ops", err, lv.Stats().Ops)
	}

	lv = NewLive(Config{Workers: 2}, &SummaryAnalyzer{})
	src = &endlessOps{cancelAt: 10, fail: io.ErrUnexpectedEOF}
	if err := lv.FeedFrom(context.Background(), src); err != io.ErrUnexpectedEOF || lv.Stats().Ops != 9 {
		t.Fatalf("source error: got %v after %d ops", err, lv.Stats().Ops)
	}
}

// TestSnapshotFeedStaysInSnapshot: what a snapshot is fed after the
// fork, the joiner's pending operations, never reaches the live engine
// or a later snapshot. The live engine receives such an operation later
// with its reply fields (EOF here), or finds another operation in its
// place. File f shows the first case to run detection, file g the
// second to the reorder sweep; both have their second access reordered
// by a 10 ms window, so the pending window of each holds a swapped
// access at the fork.
func TestSnapshotFeedStaysInSnapshot(t *testing.T) {
	read := func(fh string, at float64, off uint64, replied, eof bool) *core.Op {
		return &core.Op{T: at, Proc: core.ProcRead, FH: core.InternFH(fh),
			Offset: off, Count: 8192, Replied: replied, EOF: eof, Size: 3 * 8192}
	}
	const f, g = "cafe0001", "cafe0002"
	prefix := []*core.Op{
		read(f, 1.000, 8192, true, false), read(f, 1.001, 0, true, false),
		read(g, 2.000, 8192, true, false), read(g, 2.001, 16384, true, false),
	}
	pending := []*core.Op{read(f, 1.002, 16384, false, false), read(g, 2.002, 0, false, false)}
	later := []*core.Op{read(f, 1.002, 16384, true, true), read(g, 2.0015, 24576, true, false)}

	cfg := Config{Workers: 2}
	newPair := func() (*RunsAnalyzer, *ReorderSweepAnalyzer) {
		return &RunsAnalyzer{Config: analysis.DefaultRunConfig(10)}, &ReorderSweepAnalyzer{WindowsMS: []float64{0, 10}}
	}
	runs, sweep := newPair()
	lv := NewLive(cfg, runs, sweep)
	for _, op := range prefix {
		lv.Feed(op)
	}
	snap, err := lv.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pending {
		snap.Feed(op)
	}
	snap.Finish()

	for _, op := range later {
		lv.Feed(op)
	}
	snap, err = lv.Fork()
	if err != nil {
		t.Fatal(err)
	}
	snap.Finish()
	lv.Abort()

	wantRuns, wantSweep := newPair()
	RunSlice(cfg, append(prefix, later...), wantRuns, wantSweep)
	if got := snap.Analyzers[0].(*RunsAnalyzer).Result; !reflect.DeepEqual(got, wantRuns.Result) {
		t.Errorf("runs after a pending feed:\ngot  %+v\nwant %+v", got, wantRuns.Result)
	}
	if got := snap.Analyzers[1].(*ReorderSweepAnalyzer).Result; !reflect.DeepEqual(got, wantSweep.Result) {
		t.Errorf("sweep after a pending feed:\ngot  %+v\nwant %+v", got, wantSweep.Result)
	}
}

// TestConcurrentSnapshotFinishes finishes two forks of one Live at once
// while the live engine keeps ingesting, as two scrapes of a monitor
// do, then a third fork over everything; each must equal a batch run
// over its prefix. Run it under -race: the forks are finished on their
// own goroutines while the live engine's shards keep adding.
func TestConcurrentSnapshotFinishes(t *testing.T) {
	ops := genOps(t, 0.5)
	span := ops[len(ops)-1].T - ops[0].T
	cfg := Config{Workers: 2}
	analyzers := func() (*RunsAnalyzer, *ReorderSweepAnalyzer, *BlockLifeAnalyzer) {
		return &RunsAnalyzer{Config: analysis.DefaultRunConfig(10)},
			&ReorderSweepAnalyzer{WindowsMS: sweepWindows},
			&BlockLifeAnalyzer{Phase: span / 2, Margin: span / 2}
	}
	check := func(name string, snap *Snapshot, prefix []*core.Op) {
		runs, sweep, bl := analyzers()
		RunSlice(cfg, prefix, runs, sweep, bl)
		if got := snap.Analyzers[0].(*RunsAnalyzer).Result; !reflect.DeepEqual(got, runs.Result) {
			t.Errorf("%s: runs differ from batch over %d ops", name, len(prefix))
		}
		if got := snap.Analyzers[1].(*ReorderSweepAnalyzer).Result; !reflect.DeepEqual(got, sweep.Result) {
			t.Errorf("%s: sweep %+v, batch %+v", name, got, sweep.Result)
		}
		if got := snap.Analyzers[2].(*BlockLifeAnalyzer).Result; !reflect.DeepEqual(got, bl.Result) {
			t.Errorf("%s: block life differs from batch over %d ops", name, len(prefix))
		}
	}

	runs, sweep, bl := analyzers()
	lv := NewLive(cfg, runs, sweep, bl)
	cuts := []int{len(ops) / 3, len(ops) * 2 / 3}
	var snaps []*Snapshot
	fed := 0
	for _, cut := range cuts {
		for _, op := range ops[fed:cut] {
			lv.Feed(op)
		}
		fed = cut
		snap, err := lv.Fork()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	var wg sync.WaitGroup
	for _, snap := range snaps {
		snap := snap
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap.Finish()
		}()
	}
	for _, op := range ops[fed:] {
		lv.Feed(op)
	}
	wg.Wait()
	last, err := lv.Fork()
	if err != nil {
		t.Fatal(err)
	}
	last.Finish()
	lv.Abort()

	for i, snap := range snaps {
		check(fmt.Sprintf("fork %d", i), snap, ops[:cuts[i]])
	}
	check("last fork", last, ops)
}

// TestLiveNeverWritesItsInput: the router hands a resolved remove or
// rename to its shard as a copy, so one op slice can feed Lives at
// several shard counts and a snapshot at once — under -race, a write
// to a caller's op is a data race here — and every caller op still has
// Target zero afterwards.
func TestLiveNeverWritesItsInput(t *testing.T) {
	ops := genOps(t, 0.25)
	end := ops[len(ops)-1].T
	for _, op := range movedFileOps(32) {
		op.T += end
		ops = append(ops, op)
	}
	half := len(ops) / 2
	mk := func() []Analyzer {
		return []Analyzer{&BlockLifeAnalyzer{Phase: 1e9, Margin: 1e9}, &NamesAnalyzer{}, &HierarchyAnalyzer{}}
	}

	var wg sync.WaitGroup
	deaths := make([]int64, 4)
	for i, workers := range []int{1, 2, 8} {
		wg.Add(1)
		go func(i, workers int) {
			defer wg.Done()
			as := mk()
			lv := NewLive(Config{Workers: workers, BatchSize: 16}, as...)
			for _, op := range ops[:half] {
				lv.Feed(op)
			}
			snap, err := lv.Fork()
			if err != nil {
				t.Error(err)
				return
			}
			for _, op := range ops[half:] {
				lv.Feed(op)
				snap.Feed(op)
			}
			lv.Finish()
			snap.Finish()
			deaths[i] = as[0].(*BlockLifeAnalyzer).Result.DeathCause[analysis.DeathDelete]
			if i == 0 {
				deaths[3] = snap.Analyzers[0].(*BlockLifeAnalyzer).Result.DeathCause[analysis.DeathDelete]
			}
		}(i, workers)
	}
	wg.Wait()

	for i, op := range ops {
		if op.Target != 0 {
			t.Fatalf("op %d (%v) has Target %v after the run: the engine wrote its input", i, op.Proc, op.Target)
		}
	}
	for i, d := range deaths {
		if d < 32 || d != deaths[0] {
			t.Errorf("run %d: %d delete deaths, want the same ≥ 32 in every run (%v)", i, d, deaths)
		}
	}
}
