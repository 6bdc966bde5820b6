package pipeline

import (
	"context"
	"errors"
	"io"
	"testing"

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
