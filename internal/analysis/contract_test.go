package analysis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// This file is the one harness for the analysis.Reducer contract. Every
// reducer is driven through the pipeline's sharded adapter — the only
// caller of Merge/State — on seeded CAMPUS and EECS streams at
// 1, 2 and 8 shards, and every property compares the rendered result
// with a single one-shard pass:
//
//	(a) split anywhere + Merge = single pass    (parallel-exact reducers;
//	    runs and reorder also at every op position of a dense stream)
//	(b) a resume chain through serialized states = single pass
//	(c) a clone and its original never affect each other
//	(d) encode → decode into fresh → finish = finish
//	(e) decode, re-shard at N, feed the rest = single pass
//
// A new reducer gets all of it by adding one line to contractCases.

// contractCase is one reducer under one configuration: mk builds its
// analyzer for a stream of the given span, show renders the finished
// result (the same projections the CLI renders).
type contractCase struct {
	name string
	seq  bool
	mk   func(span float64) pipeline.Analyzer
	show func(a pipeline.Analyzer, st pipeline.Stats) string
}

func hourlyRows(h *analysis.HourlySeries, span float64) string {
	var b strings.Builder
	f := h.FixedTo(span)
	for i := 0; i < f.Ops.NumBuckets(); i++ {
		fmt.Fprintf(&b, "%v/%v/%v/%v/%v\n", f.Ops.Bucket(i), f.ReadOps.Bucket(i),
			f.WriteOps.Bucket(i), f.BytesRead.Bucket(i), f.BytesWrite.Bucket(i))
	}
	return b.String()
}

var contractCases = []contractCase{
	{"summary", false,
		func(float64) pipeline.Analyzer { return &pipeline.SummaryAnalyzer{} },
		func(a pipeline.Analyzer, _ pipeline.Stats) string {
			return fmt.Sprintf("%+v", *a.(*pipeline.SummaryAnalyzer).Result)
		}},
	{"hourly-open", false,
		func(float64) pipeline.Analyzer { return &pipeline.HourlyAnalyzer{} },
		func(a pipeline.Analyzer, st pipeline.Stats) string {
			return hourlyRows(a.(*pipeline.HourlyAnalyzer).Result, st.MaxT+1)
		}},
	// Folded to the stream's span, as nfsanalyze renders it: the hours
	// past it are clamped into the last bucket.
	{"hourly-fixed", false,
		func(float64) pipeline.Analyzer { return &pipeline.HourlyAnalyzer{} },
		func(a pipeline.Analyzer, st pipeline.Stats) string {
			return hourlyRows(a.(*pipeline.HourlyAnalyzer).Result, st.Span())
		}},
	{"runs", false,
		func(float64) pipeline.Analyzer {
			return &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(10)}
		},
		// The full run list: a clone that shared a window or a run
		// list it should not have shows up here.
		func(a pipeline.Analyzer, _ pipeline.Stats) string {
			return fmt.Sprintf("%+v", a.(*pipeline.RunsAnalyzer).Result)
		}},
	{"reorder", false,
		func(float64) pipeline.Analyzer {
			return &pipeline.ReorderSweepAnalyzer{WindowsMS: []float64{0, 5, 10}}
		},
		func(a pipeline.Analyzer, _ pipeline.Stats) string {
			return fmt.Sprintf("%+v", a.(*pipeline.ReorderSweepAnalyzer).Result)
		}},
	{"peakhour", false,
		func(span float64) pipeline.Analyzer {
			return &pipeline.PeakHourAnalyzer{From: span / 4, To: 3 * span / 4}
		},
		func(a pipeline.Analyzer, _ pipeline.Stats) string {
			return fmt.Sprintf("%+v", a.(*pipeline.PeakHourAnalyzer).Result)
		}},
	{"mailbox", false,
		func(float64) pipeline.Analyzer { return &pipeline.MailboxAnalyzer{} },
		func(a pipeline.Analyzer, _ pipeline.Stats) string {
			m := a.(*pipeline.MailboxAnalyzer)
			return fmt.Sprintf("%d/%d", m.MailboxBytes, m.TotalBytes)
		}},
	{"blocklife", true,
		func(span float64) pipeline.Analyzer {
			return &pipeline.BlockLifeAnalyzer{Start: 0, Phase: span / 2, Margin: span / 2}
		},
		func(a pipeline.Analyzer, _ pipeline.Stats) string {
			r := a.(*pipeline.BlockLifeAnalyzer).Result
			return fmt.Sprintf("%d %v %d %v %d n=%d p50=%v p90=%v", r.Births, r.BirthCause, r.Deaths,
				r.DeathCause, r.EndSurplus, r.Lifetimes.N(), r.Lifetimes.Percentile(50), r.Lifetimes.Percentile(90))
		}},
	{"hierarchy", true,
		func(float64) pipeline.Analyzer { return &pipeline.HierarchyAnalyzer{Warmup: 600} },
		func(a pipeline.Analyzer, _ pipeline.Stats) string {
			return fmt.Sprint(a.(*pipeline.HierarchyAnalyzer).Coverage)
		}},
	{"names", true,
		func(float64) pipeline.Analyzer { return &pipeline.NamesAnalyzer{} },
		func(a pipeline.Analyzer, st pipeline.Stats) string {
			rep := a.(*pipeline.NamesAnalyzer).ReportAt(st.MaxT)
			var b strings.Builder
			for _, cs := range rep.PerCategory {
				fmt.Fprintf(&b, "%s %d/%d p50=%v p98=%v r=%d w=%d\n", cs.Category, cs.Created, cs.Deleted,
					cs.Lifetimes.Percentile(50), cs.Sizes.Percentile(98), cs.ReadOps, cs.WriteOps)
			}
			fmt.Fprintf(&b, "%v/%v/%v", rep.LockFracOfDeleted, rep.SizeAccuracy, rep.LifeAccuracy)
			return b.String()
		}},
}

// contractStreams generates the two seeded op streams.
func contractStreams(t *testing.T) map[string][]*core.Op {
	t.Helper()
	gen := func(run func(client.Sink)) []*core.Op {
		j := pipeline.NewPushJoiner()
		var ops []*core.Op
		run(client.FuncSink(func(r *core.Record, _ int) { ops = j.Push(r, ops) }))
		ops = j.Drain(ops)
		if len(ops) < 1000 {
			t.Fatalf("stream has only %d ops", len(ops))
		}
		return ops
	}
	return map[string][]*core.Op{
		"campus": gen(func(s client.Sink) {
			workload.NewCampus(workload.DefaultCampusConfig(3, 0.5, 20011021), s).Run()
		}),
		"eecs": gen(func(s client.Sink) {
			workload.NewEECS(workload.DefaultEECSConfig(2, 0.5, 20011021), s).Run()
		}),
	}
}

// everyCut names the cases whose state carries reorder windows across
// a cut: they also split at every op position of denseStream.
var everyCut = map[string]bool{"runs": true, "reorder": true}

// denseStream is a small time-ordered stream that puts several accesses
// of a file in every 10 ms window: three files read (and one written)
// 0–3 ms apart, equal times included, adjacent offsets of a file
// swapped as nfsiod reorders them, an EOF every twelfth block of a file
// and one 40 s idle gap.
func denseStream() []*core.Op {
	rng := rand.New(rand.NewSource(43))
	files := []string{"dense-a", "dense-b", "dense-c"}
	next := make(map[string]uint64)
	var ops []*core.Op
	t := 100.0
	for i := 0; i < 90; i++ {
		if i == 45 {
			t += 40
		}
		t += float64(rng.Intn(4)) * 0.001
		fh := files[rng.Intn(len(files))]
		block := next[fh]
		next[fh] = (block + 1) % 12
		proc := core.ProcRead
		if fh == "dense-c" {
			proc = core.ProcWrite
		}
		ops = append(ops, &core.Op{T: t, Replied: true, Proc: proc, FH: core.InternFH(fh),
			Offset: block * 8192, Count: 8192, RCount: 8192, Size: 12 * 8192, EOF: block == 11})
	}
	for i := 1; i < len(ops); i++ {
		if a, b := ops[i-1], ops[i]; a.FH == b.FH && !a.EOF && rng.Intn(3) == 0 {
			a.Offset, b.Offset = b.Offset, a.Offset
		}
	}
	return ops
}

// contractRun is one case on one stream at one shard count.
type contractRun struct {
	t      *testing.T
	c      contractCase
	ops    []*core.Op
	span   float64
	shards int
	want   string // the single one-shard pass over ops
}

func (r *contractRun) mk() pipeline.Analyzer { return r.c.mk(r.span) }

func (r *contractRun) cfg() pipeline.Config { return pipeline.Config{Workers: r.shards} }

// single is the reference: one pass, one shard.
func (r *contractRun) single(ops []*core.Op) string {
	a := r.mk()
	return r.c.show(a, pipeline.RunSlice(pipeline.Config{Workers: 1}, ops, a))
}

func (r *contractRun) check(what, got, want string) {
	r.t.Helper()
	if got != want {
		if len(got) > 2000 || len(want) > 2000 {
			got, want = fmt.Sprintf("(%d bytes)", len(got)), fmt.Sprintf("(%d bytes)", len(want))
		}
		r.t.Errorf("%s: result differs from the single pass:\n--- want ---\n%s\n--- got ---\n%s", what, want, got)
	}
}

// partial runs ops at the given shard count and returns the serialized
// state read back.
func (r *contractRun) partial(shards int, ops []*core.Op) *pipeline.Partial {
	r.t.Helper()
	lv := pipeline.NewLive(pipeline.Config{Workers: shards}, r.mk())
	for _, op := range ops {
		lv.Feed(op)
	}
	lv.Quiesce()
	var buf bytes.Buffer
	if err := pipeline.WritePartial(&buf, lv, r.c.name, core.JoinStats{}, nil); err != nil {
		r.t.Fatal(err)
	}
	p, err := pipeline.ReadPartial(&buf)
	if err != nil {
		r.t.Fatal(err)
	}
	return p
}

// merged renders the result of merging serialized states alone.
func (r *contractRun) merged(partials ...*pipeline.Partial) string {
	r.t.Helper()
	a := r.mk()
	st, _, err := pipeline.MergePartials([]pipeline.Analyzer{a}, partials)
	if err != nil {
		r.t.Fatal(err)
	}
	return r.c.show(a, st)
}

// splitMerge is (a): independent partials over a prefix and the rest,
// merged from their serialized states, for cuts at both ends and inside
// or, with every, at every op position.
func (r *contractRun) splitMerge(every bool) {
	cuts := []int{0, len(r.ops) / 3, len(r.ops) / 2, len(r.ops)}
	if every {
		cuts = cuts[:0]
		for cut := 0; cut <= len(r.ops); cut++ {
			cuts = append(cuts, cut)
		}
	}
	for _, cut := range cuts {
		got := r.merged(r.partial(r.shards, r.ops[:cut]), r.partial(r.shards, r.ops[cut:]))
		r.check(fmt.Sprintf("split at %d + merge", cut), got, r.want)
	}
}

// resumeChain is (b): every piece but the last serializes and the next
// resumes from the bytes.
func (r *contractRun) resumeChain() {
	for _, pieces := range []int{2, 8} {
		cut := make([][]*core.Op, pieces)
		for i := range cut {
			cut[i] = r.ops[i*len(r.ops)/pieces : (i+1)*len(r.ops)/pieces]
		}
		a := r.mk()
		st, err := pipeline.RunPartitioned(r.cfg(), cut, a)
		if err != nil {
			r.t.Fatal(err)
		}
		r.check(fmt.Sprintf("resume chain of %d", pieces), r.c.show(a, st), r.want)
	}
}

// cloneIndependence is (c), on one engine: a clone taken at the cut
// equals a run over the prefix whatever is fed to the original or to
// another clone afterwards, and the original equals an uncloned run.
// One clone continues with every second op of the rest, so it and the
// original append different data past every slice they might share.
func (r *contractRun) cloneIndependence() {
	cut := len(r.ops) * 2 / 3
	prefix := r.single(r.ops[:cut])
	other := append([]*core.Op(nil), r.ops[:cut]...)
	for i := cut; i < len(r.ops); i += 2 {
		other = append(other, r.ops[i])
	}

	orig := r.mk()
	lv := pipeline.NewLive(r.cfg(), orig)
	for _, op := range r.ops[:cut] {
		lv.Feed(op)
	}
	fork := func() *pipeline.Snapshot {
		snap, err := lv.Fork()
		if err != nil {
			r.t.Fatal(err)
		}
		return snap
	}
	finish := func(s *pipeline.Snapshot) string { return r.c.show(s.Analyzers[0], s.Finish()) }

	idle, fed := fork(), fork()
	for _, op := range other[cut:] {
		fed.Feed(op)
	}
	r.check("original after its clone was fed", finish(fork()), prefix)
	for _, op := range r.ops[cut:] {
		lv.Feed(op)
	}
	r.check("clone after the original was fed", finish(idle), prefix)
	r.check("fed clone after the original was fed", finish(fed), r.single(other))
	r.check("original after cloning", r.c.show(orig, lv.Finish()), r.want)
}

// roundTrip is (d).
func (r *contractRun) roundTrip() {
	r.check("encode → decode → finish", r.merged(r.partial(r.shards, r.ops)), r.want)
}

// reshard is (e): a state written at 3 shards resumes at r.shards.
func (r *contractRun) reshard() {
	cut := len(r.ops) / 2
	p := r.partial(3, r.ops[:cut])
	a := r.mk()
	lv := pipeline.NewLive(r.cfg(), a)
	if err := p.Resume(lv); err != nil {
		r.t.Fatal(err)
	}
	for _, op := range r.ops[cut:] {
		lv.Feed(op)
	}
	r.check("re-sharded resume", r.c.show(a, lv.Finish()), r.want)
}

func TestReducerContract(t *testing.T) {
	for stream, ops := range contractStreams(t) {
		span := ops[len(ops)-1].T - ops[0].T
		for _, c := range contractCases {
			for _, shards := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/%d", stream, c.name, shards), func(t *testing.T) {
					r := &contractRun{t: t, c: c, ops: ops, span: span, shards: shards}
					r.want = r.single(ops)
					if !c.seq {
						r.splitMerge(false)
					}
					r.resumeChain()
					r.cloneIndependence()
					r.roundTrip()
					r.reshard()
				})
			}
		}
	}
	dense := denseStream()
	for _, c := range contractCases {
		if !everyCut[c.name] {
			continue
		}
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("dense/%s/%d", c.name, shards), func(t *testing.T) {
				r := &contractRun{t: t, c: c, ops: dense, span: dense[len(dense)-1].T - dense[0].T, shards: shards}
				r.want = r.single(dense)
				r.splitMerge(true)
			})
		}
	}
}
