package repro

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// This file is the end-to-end determinism guarantee for serialized
// partial state, mirroring pipeline_equivalence_test.go one axis out:
// every table and figure must render byte-identically whether a trace's
// analyses run as one pass or as a chain of serialized partial states
// (pipeline.RunPartitioned), at any piece count × worker count
// combination. Each piece boundary exercises the full encode → decode →
// resume surface of every analyzer, so this is the golden grid for
// nfsanalyze -partial/-resume/-merge semantics at the experiments level
// (the CLI and coordinator grids live in cmd/nfsanalyze).
func TestPartialStateByteIdenticalTables(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	want := renderedExperiments(generatePair(pipeline.Config{}, scale))

	campusOps, campusJoin := replay(joined(scale.campus, nil))
	eecsOps, eecsJoin := replay(joined(scale.eecs, nil))
	// partitioned runs a trace's analyses over ops as newTrace does,
	// each analysis's share cut into pieces.
	partitioned := func(cfg pipeline.Config, pieces int, name string, reorderMS float64, ops []*core.Op, join core.JoinStats) *Trace {
		tr := &Trace{Name: name, Days: scale.Days, ReorderWindowMS: reorderMS, Join: join}
		a := newAnalyses(scale.Days, reorderMS)
		var err error
		if tr.Stats, err = pipeline.RunPartitioned(cfg, splitOps(ops, pieces), a.list()...); err != nil {
			t.Fatal(err)
		}
		sweep := &pipeline.ReorderSweepAnalyzer{WindowsMS: figure1MS}
		swept := slices.DeleteFunc(slices.Clone(ops), func(op *core.Op) bool { return !onWednesdayMorning(op) })
		if len(swept) == 0 {
			swept = ops
		}
		if _, err := pipeline.RunPartitioned(cfg, splitOps(swept, pieces), sweep); err != nil {
			t.Fatal(err)
		}
		tr.res = a.results(sweep.Result)
		return tr
	}

	for _, pieces := range []int{1, 2, 8} {
		for _, workers := range []int{1, 8} {
			cfg := pipeline.Config{Workers: workers}
			got := renderedExperiments(
				partitioned(cfg, pieces, "CAMPUS", 10, campusOps, campusJoin),
				partitioned(cfg, pieces, "EECS", 5, eecsOps, eecsJoin))
			for name, w := range want {
				if got[name] != w {
					t.Errorf("pieces=%d workers=%d: %s differs from the single-pass run:\n--- single ---\n%s\n--- partitioned ---\n%s",
						pieces, workers, name, w, got[name])
				}
			}
		}
	}
}

// splitOps cuts ops into n contiguous pieces of near-equal length.
func splitOps(ops []*core.Op, n int) [][]*core.Op {
	if n > len(ops) {
		n = len(ops)
	}
	if n < 1 {
		n = 1
	}
	pieces := make([][]*core.Op, 0, n)
	for i := 0; i < n; i++ {
		lo := i * len(ops) / n
		hi := (i + 1) * len(ops) / n
		pieces = append(pieces, ops[lo:hi])
	}
	return pieces
}
