package repro

import (
	"testing"
)

// This file is the end-to-end determinism guarantee for serialized
// partial state, mirroring pipeline_equivalence_test.go one axis out:
// every table and figure must render byte-identically whether each
// analysis runs as one pass or as a chain of serialized partial states
// (Trace.pieces), at any piece count × worker count combination. Each
// piece boundary exercises the full encode → decode → resume surface of
// every analyzer, so this is the golden grid for nfsanalyze
// -partial/-resume/-merge semantics at the experiments level (the CLI
// and coordinator grids live in cmd/nfsanalyze).
func TestPartialStateByteIdenticalTables(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	campus := GenerateCampus(scale)
	eecs := GenerateEECS(scale)

	want := renderedExperiments(campus, eecs)

	for _, pieces := range []int{1, 2, 8} {
		for _, workers := range []int{1, 8} {
			campus.pieces, eecs.pieces = pieces, pieces
			campus.Pipeline.Workers, eecs.Pipeline.Workers = workers, workers
			got := renderedExperiments(campus, eecs)
			for name, w := range want {
				if got[name] != w {
					t.Errorf("pieces=%d workers=%d: %s differs from the single-pass run:\n--- single ---\n%s\n--- partitioned ---\n%s",
						pieces, workers, name, w, got[name])
				}
			}
		}
	}
	campus.pieces, eecs.pieces = 0, 0
	campus.Pipeline.Workers, eecs.Pipeline.Workers = 0, 0
}
