package pipeline

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/workload"
)

// genRecords simulates a small CAMPUS trace and returns its raw records.
func genRecords(tb testing.TB, days float64) []*core.Record {
	tb.Helper()
	sink := &client.SliceSink{}
	workload.NewCampus(workload.DefaultCampusConfig(3, days, 20011021), sink).Run()
	return sink.Records
}

func genOps(tb testing.TB, days float64) []*core.Op {
	tb.Helper()
	ops, _ := pullAll(tb, genRecords(tb, days), 0)
	return ops
}

// addAll feeds ops to a reducer in order and returns it: the
// sequential analysis the sharded engine is held against.
func addAll[R interface{ Add(*core.Op) }](r R, ops []*core.Op) R {
	for _, op := range ops {
		r.Add(op)
	}
	return r
}

// analyzerSet builds one of every sharded analyzer plus the global
// hierarchy analyzer, over the given span.
type analyzerSet struct {
	summary   *SummaryAnalyzer
	hourly    *HourlyAnalyzer
	rawRuns   *RunsAnalyzer
	procRuns  *RunsAnalyzer
	blockLife *BlockLifeAnalyzer
	sweep     *ReorderSweepAnalyzer
	peak      *PeakHourAnalyzer
	mailbox   *MailboxAnalyzer
	hier      *HierarchyAnalyzer
}

var sweepWindows = []float64{0, 1, 5, 10, 50}

func newAnalyzerSet(span float64) *analyzerSet {
	return &analyzerSet{
		summary:   &SummaryAnalyzer{},
		hourly:    &HourlyAnalyzer{},
		rawRuns:   &RunsAnalyzer{Config: analysis.RunConfig{IdleGap: 30, JumpBlocks: 1}},
		procRuns:  &RunsAnalyzer{Config: analysis.DefaultRunConfig(10)},
		blockLife: &BlockLifeAnalyzer{Start: 0, Phase: span / 2, Margin: span / 2},
		sweep:     &ReorderSweepAnalyzer{WindowsMS: sweepWindows},
		peak:      &PeakHourAnalyzer{From: 10 * workload.Hour, To: 11 * workload.Hour},
		mailbox:   &MailboxAnalyzer{},
		hier:      &HierarchyAnalyzer{Warmup: 600},
	}
}

func (s *analyzerSet) analyzers() []Analyzer {
	return []Analyzer{s.summary, s.hourly, s.rawRuns, s.procRuns,
		s.blockLife, s.sweep, s.peak, s.mailbox, s.hier}
}

// TestShardMergeMatchesSequential is the core determinism guarantee:
// every analyzer's merged result at 1, 2, and 8 workers equals the
// slice-based sequential analysis.
func TestShardMergeMatchesSequential(t *testing.T) {
	ops := genOps(t, 0.5)
	if len(ops) == 0 {
		t.Fatal("no ops generated")
	}
	span := ops[len(ops)-1].T - ops[0].T
	days := span / workload.Day

	wantSummary := addAll(analysis.NewSummary(days), ops)
	wantHourly := addAll(analysis.NewHourlyOpen(), ops).FixedTo(span)
	rawTables := addAll(analysis.NewRunDetector(analysis.RunConfig{IdleGap: 30, JumpBlocks: 1}), ops).Tables()
	wantRaw := rawTables.Tabulate()
	wantProcRuns := addAll(analysis.NewRunDetector(analysis.DefaultRunConfig(10)), ops).Tables()
	wantProc := wantProcRuns.Tabulate()
	wantSize := wantProcRuns.SizeProfile()
	wantSeq := wantProcRuns.SequentialityProfile()
	wantSweep := addAll(analysis.NewReorderSweeper(sweepWindows), ops).Points()
	wantCov := addAll(analysis.NewHierarchyCoverage(600), ops).Coverage()
	// Block life resolves removes through the router, so its reference
	// is the one-shard engine.
	life := &BlockLifeAnalyzer{Start: 0, Phase: span / 2, Margin: span / 2}
	RunSlice(Config{Workers: 1}, ops, life)
	wantLife := life.Result

	for _, workers := range []int{1, 2, 3, 8} {
		for _, batch := range []int{0, 7} {
			set := newAnalyzerSet(span)
			stats := RunSlice(Config{Workers: workers, BatchSize: batch}, ops, set.analyzers()...)
			set.summary.Result.Days = days

			if stats.Ops != int64(len(ops)) {
				t.Errorf("workers=%d: stats.Ops = %d, want %d", workers, stats.Ops, len(ops))
			}
			if stats.Span() != span {
				t.Errorf("workers=%d: stats.Span() = %v, want %v", workers, stats.Span(), span)
			}
			if !reflect.DeepEqual(set.summary.Result, wantSummary) {
				t.Errorf("workers=%d batch=%d: summary mismatch:\n got %+v\nwant %+v",
					workers, batch, set.summary.Result, wantSummary)
			}
			hourly := set.hourly.Result.FixedTo(span)
			for i := 0; i < wantHourly.Ops.NumBuckets(); i++ {
				if hourly.Ops.Bucket(i) != wantHourly.Ops.Bucket(i) ||
					hourly.BytesRead.Bucket(i) != wantHourly.BytesRead.Bucket(i) ||
					hourly.BytesWrite.Bucket(i) != wantHourly.BytesWrite.Bucket(i) {
					t.Fatalf("workers=%d: hourly bucket %d mismatch", workers, i)
				}
			}
			if got := set.rawRuns.Table(); !reflect.DeepEqual(got, wantRaw) {
				t.Errorf("workers=%d: raw run table mismatch:\n got %+v\nwant %+v", workers, got, wantRaw)
			}
			if got := set.procRuns.Table(); !reflect.DeepEqual(got, wantProc) {
				t.Errorf("workers=%d: processed run table mismatch:\n got %+v\nwant %+v", workers, got, wantProc)
			}
			if got := set.procRuns.Result.SizeProfile(); !reflect.DeepEqual(got, wantSize) {
				t.Errorf("workers=%d: size profile mismatch", workers)
			}
			if got := set.procRuns.Result.SequentialityProfile(); !reflect.DeepEqual(got, wantSeq) {
				t.Errorf("workers=%d: sequentiality profile mismatch", workers)
			}
			gotLife := set.blockLife.Result
			if gotLife.Births != wantLife.Births || gotLife.Deaths != wantLife.Deaths ||
				gotLife.BirthCause != wantLife.BirthCause || gotLife.DeathCause != wantLife.DeathCause ||
				gotLife.EndSurplus != wantLife.EndSurplus {
				t.Errorf("workers=%d: block life mismatch:\n got %+v\nwant %+v", workers, gotLife, wantLife)
			}
			if gotLife.Lifetimes.N() != wantLife.Lifetimes.N() {
				t.Errorf("workers=%d: lifetime samples %d, want %d",
					workers, gotLife.Lifetimes.N(), wantLife.Lifetimes.N())
			}
			for _, p := range []float64{1, 25, 50, 90, 99} {
				if gotLife.Lifetimes.Percentile(p) != wantLife.Lifetimes.Percentile(p) {
					t.Errorf("workers=%d: lifetime p%.0f mismatch", workers, p)
				}
			}
			if !reflect.DeepEqual(set.sweep.Result, wantSweep) {
				t.Errorf("workers=%d: reorder sweep mismatch:\n got %+v\nwant %+v",
					workers, set.sweep.Result, wantSweep)
			}
			if set.hier.Coverage != wantCov {
				t.Errorf("workers=%d: hierarchy coverage %v, want %v", workers, set.hier.Coverage, wantCov)
			}
		}
	}
}

// TestPeakAndMailboxStableAcrossWorkers pins the Table 1 reductions:
// identical results at every worker count (the single-worker pass is
// the sequential reference).
func TestPeakAndMailboxStableAcrossWorkers(t *testing.T) {
	ops := genOps(t, 0.5)
	span := ops[len(ops)-1].T - ops[0].T

	base := newAnalyzerSet(span)
	RunSlice(Config{Workers: 1}, ops, base.peak, base.mailbox)
	if base.peak.Result.Instances == 0 {
		t.Fatal("no peak-hour instances; widen the window")
	}
	if base.mailbox.TotalBytes == 0 {
		t.Fatal("no data bytes accounted")
	}
	for _, workers := range []int{2, 8} {
		set := newAnalyzerSet(span)
		RunSlice(Config{Workers: workers}, ops, set.peak, set.mailbox)
		if set.peak.Result != base.peak.Result {
			t.Errorf("workers=%d: peak-hour result %+v, want %+v",
				workers, set.peak.Result, base.peak.Result)
		}
		if set.mailbox.MailboxBytes != base.mailbox.MailboxBytes ||
			set.mailbox.TotalBytes != base.mailbox.TotalBytes {
			t.Errorf("workers=%d: mailbox share %d/%d, want %d/%d", workers,
				set.mailbox.MailboxBytes, set.mailbox.TotalBytes,
				base.mailbox.MailboxBytes, base.mailbox.TotalBytes)
		}
	}
}

// TestJoinerMatchesJoin checks the streaming join, in its pull and push
// forms, against the materializing oracle: the same operations in the
// same order and all five JoinStats fields, on a clean CAMPUS stream
// and on one seen through the §4.1.4 mirror port, where calls lose
// their replies and replies their calls.
func TestJoinerMatchesJoin(t *testing.T) {
	lossySink := &client.SliceSink{}
	port := netem.NewMirrorPort()
	port.Rate = 120e3
	lossy := &client.LossySink{Next: lossySink, Port: port}
	workload.NewCampus(workload.DefaultCampusConfig(3, 0.5, 20011021), lossy).Run()

	for name, records := range map[string][]*core.Record{
		"clean": genRecords(t, 0.25), "lossy": lossySink.Records,
	} {
		wantOps, wantStats := joinOracle(records)
		if lost := wantStats.UnmatchedCalls > 0 && wantStats.OrphanReplies > 0; lost != (name == "lossy") {
			t.Fatalf("%s: stats %+v", name, wantStats)
		}

		gotOps, gotStats := pullAll(t, records, 0)
		if gotStats != wantStats {
			t.Errorf("%s: stats %+v, want %+v", name, gotStats, wantStats)
		}
		sameOps(t, name+" pull", gotOps, wantOps)

		pj := NewPushJoiner()
		var pushed []*core.Op
		for _, r := range records {
			pushed = pj.Push(r, pushed)
		}
		pushed = pj.Drain(pushed)
		if pj.Stats() != wantStats {
			t.Errorf("%s: push stats %+v, want %+v", name, pj.Stats(), wantStats)
		}
		sameOps(t, name+" push", pushed, wantOps)
	}
}

// TestJoinerThroughEngine runs the full streaming path: records →
// Joiner → sharded engine, against the slice path.
func TestJoinerThroughEngine(t *testing.T) {
	records := genRecords(t, 0.25)
	ops, _ := pullAll(t, records, 0)
	span := ops[len(ops)-1].T - ops[0].T
	want := addAll(analysis.NewSummary(0), ops)

	sum := &SummaryAnalyzer{}
	stats, err := Run(Config{Workers: 4}, NewJoiner(&core.SliceSource{Records: records}), sum)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops != int64(len(ops)) {
		t.Errorf("stats.Ops = %d, want %d", stats.Ops, len(ops))
	}
	if stats.Span() != span {
		t.Errorf("stats.Span() = %v, want %v", stats.Span(), span)
	}
	if !reflect.DeepEqual(sum.Result, want) {
		t.Errorf("summary via joiner mismatch:\n got %+v\nwant %+v", sum.Result, want)
	}
}

// countingSource tracks how many records a consumer has pulled.
type countingSource struct {
	src  core.RecordSource
	read int
}

func (c *countingSource) Next() (*core.Record, error) {
	r, err := c.src.Next()
	if err == nil {
		c.read++
	}
	return r, err
}

// TestJoinerXIDReuseSameTimestamp: a client reusing an xid at the same
// quantized timestamp after the first call completed must not release
// younger ops ahead of an older still-pending call. An early joiner
// that identified pending entries by (time, key) alone let the second
// call's entry collide with the first's lazily deleted one and did
// exactly that — a time-ordering violation downstream.
func TestJoinerXIDReuseSameTimestamp(t *testing.T) {
	rd := func(tm float64, kind byte, xid uint32) *core.Record {
		return &core.Record{Time: tm, Kind: kind, Client: 1, Port: 1, XID: xid,
			Proc: core.ProcRead, FH: core.InternFH("aa")}
	}
	records := []*core.Record{
		// An older call that never gets its reply holds the head, so
		// everything below waits behind it.
		rd(4.0, core.KindCall, 9),
		rd(5.0, core.KindCall, 1),
		rd(5.0, core.KindReply, 1), // quantized to the call's timestamp
		rd(5.0, core.KindCall, 1),  // xid reused at the same instant
		rd(5.0, core.KindReply, 1), // ... and matched at it too
		// Enough later traffic to push the expiry limit past t=5: with
		// the early joiner's (time, key) entries the second match
		// saturated the single gone flag, and expiring the ghost entry resolved to a missing
		// pending call (nil-record crash in FromPair).
		rd(400.0, core.KindCall, 3),
		rd(400.5, core.KindReply, 3),
	}
	j := NewJoiner(&core.SliceSource{Records: records})
	last := -1.0
	n := 0
	for {
		op, err := j.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if op.T < last {
			t.Fatalf("op %d out of order: T=%v after T=%v", n, op.T, last)
		}
		last = op.T
		n++
	}
	if n != 4 {
		t.Fatalf("joined %d ops, want 4", n)
	}
	if st := j.Stats(); st.Matched != 3 || st.UnmatchedCalls != 1 || st.OrphanReplies != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestJoinerExpiresStaleCalls checks that one lost reply does not hold
// the head for good: the joiner must keep streaming (and keep its
// memory bounded) instead of buffering the rest of the trace until
// EOF.
func TestJoinerExpiresStaleCalls(t *testing.T) {
	// A call at t=0 that never gets a reply, then hours of normal
	// call/reply traffic.
	records := []*core.Record{
		{Time: 0, Kind: core.KindCall, Client: 9, Port: 9, XID: 999, Proc: core.MustProc("read"), FH: core.InternFH("dead")},
	}
	for i := 1; i <= 4000; i++ {
		tm := float64(i)
		records = append(records,
			&core.Record{Time: tm, Kind: core.KindCall, Client: 1, Port: 1, XID: uint32(i), Proc: core.MustProc("read"), FH: core.InternFH("aa")},
			&core.Record{Time: tm + 0.001, Kind: core.KindReply, Client: 1, Port: 1, XID: uint32(i), Proc: core.MustProc("read")},
		)
	}

	cs := &countingSource{src: &core.SliceSource{Records: records}}
	j := NewJoiner(cs)
	op, err := j.Next()
	if err != nil {
		t.Fatal(err)
	}
	if op.T != 0 || op.Replied {
		t.Fatalf("first op = %+v, want the expired unmatched call at t=0", op)
	}
	if cs.read == len(records) {
		t.Fatalf("joiner consumed the whole source (%d records) before emitting: the lost call held the head", cs.read)
	}
	// The expiry threshold is core.DefaultMaxCallAge behind the stream, so
	// roughly that many seconds of records should have been read.
	if got := cs.read; got > 2*int(core.DefaultMaxCallAge)+10 {
		t.Errorf("consumed %d records before first op; expiry should trigger near t=%v", got, core.DefaultMaxCallAge)
	}

	n := 1
	for {
		if _, err := j.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4001 {
		t.Errorf("emitted %d ops, want 4001", n)
	}
	stats := j.Stats()
	if stats.UnmatchedCalls != 1 || stats.Matched != 4000 {
		t.Errorf("stats = %+v, want 1 unmatched, 4000 matched", stats)
	}
}

type errSource struct{ n int }

func (s *errSource) Next() (*core.Op, error) {
	if s.n == 0 {
		return nil, errors.New("boom")
	}
	s.n--
	return &core.Op{T: 1, Proc: core.MustProc("read"), FH: core.InternFH("aa")}, nil
}

// TestSourceErrorPropagates checks that a failing source shuts the
// workers down and surfaces the error.
func TestSourceErrorPropagates(t *testing.T) {
	sum := &SummaryAnalyzer{}
	_, err := Run(Config{Workers: 4}, &errSource{n: 10}, sum)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestEmptyStream checks the zero-op edge.
func TestEmptyStream(t *testing.T) {
	set := newAnalyzerSet(workload.Day)
	stats := RunSlice(Config{Workers: 4}, nil, set.analyzers()...)
	if stats.Ops != 0 || stats.Span() != 0 {
		t.Errorf("stats = %+v, want zero", stats)
	}
	if set.summary.Result.TotalOps != 0 {
		t.Errorf("summary counted ops on empty stream")
	}
}

// movedFileOps creates a file in one directory, writes a block, renames
// it into another directory and removes it there — per file, for n
// files, so the files spread over every shard.
func movedFileOps(n int) []*core.Op {
	var ops []*core.Op
	for i := 0; i < n; i++ {
		t := float64(i)
		f := core.InternFH(fmt.Sprintf("moved-%d", i))
		src, dst := core.InternFH("moved-src"), core.InternFH("moved-dst")
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		ops = append(ops,
			&core.Op{T: t, Replied: true, Proc: core.ProcCreate, FH: src, Name: a, NewFH: f},
			&core.Op{T: t + 0.1, Replied: true, Proc: core.ProcWrite, FH: f,
				Count: 8192, RCount: 8192, HasPre: true, Size: 8192},
			&core.Op{T: t + 0.2, Replied: true, Proc: core.ProcRename, FH: src, Name: a, FH2: dst, Name2: b},
			&core.Op{T: t + 0.3, Replied: true, Proc: core.ProcRemove, FH: dst, Name: b},
		)
	}
	return ops
}

// TestBlockLifeRenameTracksName: the router's binding follows a file
// across directories, so a remove under its new name kills its blocks
// on whichever shard owns it.
func TestBlockLifeRenameTracksName(t *testing.T) {
	const files = 16
	ops := movedFileOps(files)
	for _, workers := range []int{1, 2, 8} {
		life := &BlockLifeAnalyzer{Start: 0, Phase: 100, Margin: 100}
		names := &NamesAnalyzer{}
		RunSlice(Config{Workers: workers}, ops, life, names)
		if got := life.Result.DeathCause[analysis.DeathDelete]; got != files {
			t.Errorf("workers=%d: %d delete deaths, want %d (%+v)", workers, got, files, life.Result)
		}
		if life.Result.EndSurplus != 0 {
			t.Errorf("workers=%d: end surplus %d, want 0", workers, life.Result.EndSurplus)
		}
		if rep := names.ReportAt(100); rep.CreatedAndDeleted != files {
			t.Errorf("workers=%d: names saw %d created-and-deleted files, want %d", workers, rep.CreatedAndDeleted, files)
		}
	}
}
