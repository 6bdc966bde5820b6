package pipeline

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/state"
)

// This file binds each of the paper's analyses to the engine. An
// analysis is an analysis.Reducer plus a finish step; everything the
// engine does with it — open one reducer per shard, merge them at the
// end, clone them for a snapshot, serialize them, re-shard a serialized
// state — is written once, in sharded, as a composition of the
// reducer's Add/Merge/State. Every analyzer here is exact: its
// merged result is identical to a single sequential pass, either
// because its state partitions by file handle (the router guarantees a
// file's full history lands on one shard), or because it is an integer
// sum, or because it is global and runs on one shard.

// adapter is what the engine sees of an analyzer's reducers; sharded is
// its one implementation.
type adapter interface {
	// open creates one reducer per shard.
	open(shards int) []Accumulator
	// close merges the shards and publishes the result on the analyzer.
	close()
	// fork returns a fresh analyzer holding an independent copy of every
	// shard's state, plus the copies, so a snapshot can keep feeding
	// them. Closing it yields what the original would have produced had
	// the stream ended at the fork.
	fork() (Analyzer, []Accumulator)
	// stateKey names the section payload format; the section is written
	// as "<index>:<key>" so one run can carry two analyzers of a kind.
	stateKey() string
	// sequential reports order dependence: such states resume, they
	// never merge as independent partials.
	sequential() bool
	// newLike returns a fresh unopened analyzer with the same
	// configuration.
	newLike() Analyzer
	// encodeState writes the union of every shard's state to an encoding
	// codec. It runs after Quiesce; rt arbitrates name bindings that
	// differ between shards.
	encodeState(c *state.Codec, rt *router)
	// decodeState folds one serialized state into the open shards, each
	// taking the files it owns. It runs after open, before any Feed.
	decodeState(c *state.Codec)
}

// sharded runs one analysis.Reducer per shard. A global analysis is the
// same thing opened with one shard.
type sharded[R analysis.Reducer[R]] struct {
	key    string
	seq    bool
	mk     func() R        // a fresh reducer under the analyzer's configuration
	finish func(R)         // publishes the merged reducer's result
	like   func() Analyzer // a fresh analyzer under the same configuration
	parts  []R
}

// bind returns the adapter in *slot, creating it on first use.
func bind[R analysis.Reducer[R]](slot **sharded[R], key string, seq bool,
	mk func() R, finish func(R), like func() Analyzer) adapter {
	if *slot == nil {
		*slot = &sharded[R]{key: key, seq: seq, mk: mk, finish: finish, like: like}
	}
	return *slot
}

func (s *sharded[R]) open(shards int) []Accumulator {
	s.parts = make([]R, shards)
	accs := make([]Accumulator, shards)
	for i := range s.parts {
		s.parts[i] = s.mk()
		accs[i] = s.parts[i]
	}
	return accs
}

// merged folds every shard into a fresh reducer.
func (s *sharded[R]) merged(f analysis.Filter) R {
	m := s.mk()
	for _, p := range s.parts {
		m.Merge(p, f)
	}
	return m
}

func (s *sharded[R]) close() { s.finish(s.merged(analysis.Filter{})) }

func (s *sharded[R]) fork() (Analyzer, []Accumulator) {
	a := s.like()
	f := a.adapter().(*sharded[R]) // like returns s's own analyzer type
	accs := f.open(len(s.parts))
	for i, p := range s.parts {
		f.parts[i].Merge(p, analysis.Filter{})
	}
	return a, accs
}

func (s *sharded[R]) stateKey() string  { return s.key }
func (s *sharded[R]) sequential() bool  { return s.seq }
func (s *sharded[R]) newLike() Analyzer { return s.like() }

// encodeState drops name bindings the router no longer agrees with. A
// shard's (dir, name) → file map can hold a binding the global stream
// has since rebound or removed, because the superseding op was routed
// to another shard. The router sees every binding event in order, so
// what it still agrees with is exactly the map a one-shard run holds.
func (s *sharded[R]) encodeState(c *state.Codec, rt *router) {
	s.merged(analysis.Filter{Binding: rt.bound}).State(c)
}

func (s *sharded[R]) decodeState(c *state.Codec) {
	tmp := s.mk()
	if tmp.State(c); c.Err() != nil {
		return
	}
	n := len(s.parts)
	for i, p := range s.parts {
		i := i
		p.Merge(tmp, analysis.Filter{Owns: func(fh core.FH) bool { return shardIndex(fh, n) == i }})
	}
}

// IsSequential reports whether the analyzer's reduction is order
// dependent — if so, partial states from disjoint trace pieces cannot
// be merged independently and must be chained with resume.
func IsSequential(a Analyzer) bool { return a.adapter().sequential() }

// SummaryAnalyzer computes the analysis.Summary of the stream
// (Tables 1 and 2).
type SummaryAnalyzer struct {
	// Days scales per-day averages; it may also be set on the Result
	// after the run when the span is only known then.
	Days float64
	// Result is valid after the run.
	Result *analysis.Summary

	sh *sharded[*analysis.Summary]
}

func (a *SummaryAnalyzer) adapter() adapter {
	return bind(&a.sh, "summary", false,
		func() *analysis.Summary { return analysis.NewSummary(a.Days) },
		func(s *analysis.Summary) { a.Result = s },
		func() Analyzer { return &SummaryAnalyzer{Days: a.Days} })
}

// HourlyAnalyzer buckets the stream by hour (Table 5,
// Figure 4). Span > 0 fixes the hour buckets at construction; Span == 0
// accumulates open-ended buckets — fold the Result with FixedTo once
// the span is known (it is identical to having fixed it up front,
// because buckets anchor at t=0 either way).
type HourlyAnalyzer struct {
	Span float64
	// Result is valid after the run.
	Result *analysis.HourlySeries

	sh *sharded[*analysis.HourlySeries]
}

func (a *HourlyAnalyzer) adapter() adapter {
	return bind(&a.sh, "hourly", false,
		func() *analysis.HourlySeries {
			if a.Span > 0 {
				return analysis.NewHourly(a.Span)
			}
			return analysis.NewHourlyOpen()
		},
		func(h *analysis.HourlySeries) { a.Result = h },
		func() Analyzer { return &HourlyAnalyzer{Span: a.Span} })
}

// RunsAnalyzer detects access runs (Table 3, Figures 2 and 5). Runs
// never span files, so each shard accumulates the access lists of the
// files it owns.
type RunsAnalyzer struct {
	Config analysis.RunConfig
	// Result is valid after the run.
	Result []analysis.Run

	sh *sharded[*analysis.RunDetector]
}

func (a *RunsAnalyzer) adapter() adapter {
	return bind(&a.sh, "runs", false,
		func() *analysis.RunDetector { return analysis.NewRunDetector(a.Config) },
		func(r *analysis.RunDetector) { a.Result = r.Runs() },
		func() Analyzer { return &RunsAnalyzer{Config: a.Config} })
}

// Table reports Tabulate over the detected runs.
func (a *RunsAnalyzer) Table() analysis.RunTable { return analysis.Tabulate(a.Result) }

// BlockLifeAnalyzer runs the create-based block-lifetime analysis
// (Table 4, Figure 3). Block state is per file, and the router delivers
// removes and renames to the owning shard, so per-shard streams merge
// exactly. Phases are positions in the stream, so it is sequential.
type BlockLifeAnalyzer struct {
	Start, Phase, Margin float64
	// Result is valid after the run.
	Result *analysis.BlockLifeResult

	sh *sharded[*analysis.BlockLifeStream]
}

func (a *BlockLifeAnalyzer) adapter() adapter {
	return bind(&a.sh, "blocklife", true,
		func() *analysis.BlockLifeStream { return analysis.NewBlockLifeStream(a.Start, a.Phase, a.Margin) },
		func(s *analysis.BlockLifeStream) { a.Result = s.Result() },
		func() Analyzer { return &BlockLifeAnalyzer{Start: a.Start, Phase: a.Phase, Margin: a.Margin} })
}

// ReorderSweepAnalyzer measures swapped accesses per reorder-window
// size (Figure 1). Sorting windows apply per file, so the access lists
// shard by handle.
type ReorderSweepAnalyzer struct {
	WindowsMS []float64
	// Result is valid after the run.
	Result []analysis.ReorderSweepPoint

	sh *sharded[*analysis.ReorderSweeper]
}

func (a *ReorderSweepAnalyzer) adapter() adapter {
	return bind(&a.sh, "reorder", false,
		func() *analysis.ReorderSweeper { return analysis.NewReorderSweeper(a.WindowsMS) },
		func(r *analysis.ReorderSweeper) { a.Result = r.Points() },
		func() Analyzer { return &ReorderSweepAnalyzer{WindowsMS: a.WindowsMS} })
}

// PeakHourAnalyzer counts peak-hour file instances by category
// (Table 1). Instance sets partition by handle.
type PeakHourAnalyzer struct {
	From, To float64
	// Result is valid after the run.
	Result analysis.PeakHourResult

	sh *sharded[*analysis.PeakHourInstances]
}

func (a *PeakHourAnalyzer) adapter() adapter {
	return bind(&a.sh, "peakhour", false,
		func() *analysis.PeakHourInstances { return analysis.NewPeakHourInstances(a.From, a.To) },
		func(p *analysis.PeakHourInstances) { a.Result = p.Finish() },
		func() Analyzer { return &PeakHourAnalyzer{From: a.From, To: a.To} })
}

// MailboxAnalyzer computes the mailbox share of data bytes (Table 1).
type MailboxAnalyzer struct {
	// MailboxBytes and TotalBytes are valid after the run.
	MailboxBytes, TotalBytes uint64

	sh *sharded[*analysis.MailboxShare]
}

func (a *MailboxAnalyzer) adapter() adapter {
	return bind(&a.sh, "mailbox", false,
		analysis.NewMailboxShare,
		func(m *analysis.MailboxShare) { a.MailboxBytes, a.TotalBytes = m.Finish() },
		func() Analyzer { return &MailboxAnalyzer{} })
}

// HierarchyAnalyzer measures §4.1.1 namespace-reconstruction coverage.
// The hierarchy's state is inherently global — a directory becomes
// "known" through other files' lookups — so this is a GlobalAnalyzer:
// it sees the whole ordered stream on its own goroutine, overlapping
// the sharded work instead of partitioning it. A fork of it is global
// too, so a snapshot continuation feeds it the full stream as well.
type HierarchyAnalyzer struct {
	Warmup float64
	// Coverage is valid after the run.
	Coverage float64

	sh *sharded[*analysis.HierarchyCoverage]
}

// Unsharded marks HierarchyAnalyzer as global.
func (a *HierarchyAnalyzer) Unsharded() {}

func (a *HierarchyAnalyzer) adapter() adapter {
	return bind(&a.sh, "hierarchy", true,
		func() *analysis.HierarchyCoverage { return analysis.NewHierarchyCoverage(a.Warmup) },
		func(c *analysis.HierarchyCoverage) { a.Coverage = c.Coverage() },
		func() Analyzer { return &HierarchyAnalyzer{Warmup: a.Warmup} })
}

// NamesAnalyzer runs the §6.3 filename analysis over the stream. Name
// bindings and file instances span directories arbitrarily, so like the
// hierarchy it is a GlobalAnalyzer: one ordered pass on a dedicated
// goroutine, overlapping the sharded analyses.
type NamesAnalyzer struct {
	stream *analysis.NamesStream
	sh     *sharded[*analysis.NamesStream]
}

// Unsharded marks NamesAnalyzer as global.
func (a *NamesAnalyzer) Unsharded() {}

func (a *NamesAnalyzer) adapter() adapter {
	return bind(&a.sh, "names", true,
		analysis.NewNamesStream,
		func(n *analysis.NamesStream) { a.stream = n },
		func() Analyzer { return &NamesAnalyzer{} })
}

// ReportAt builds the report as of windowEnd. Valid after the run.
func (a *NamesAnalyzer) ReportAt(windowEnd float64) *analysis.NameReport {
	return a.stream.Report(windowEnd)
}
