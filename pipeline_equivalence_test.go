package repro

import (
	"testing"

	"repro/internal/pipeline"
)

// generatePair generates the Scale's CAMPUS and EECS traces, analyzed
// on an engine sized by cfg.
func generatePair(cfg pipeline.Config, s Scale) (campus, eecs *Trace) {
	return newTrace(cfg, "CAMPUS", s.Days, 10, joined(s.campus, nil)),
		newTrace(cfg, "EECS", s.Days, 5, joined(s.eecs, nil))
}

// TestTablesByteIdenticalAcrossWorkers is the end-to-end determinism
// guarantee for the sharded pipeline: every table and figure renders
// byte-identically whether the analyses run on one worker (the
// sequential reference) or many.
func TestTablesByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) map[string]string {
		return renderedExperiments(generatePair(pipeline.Config{Workers: workers}, SmallScale()))
	}

	want := render(1)
	for _, workers := range []int{2, 8} {
		got := render(workers)
		for name := range want {
			if got[name] != want[name] {
				t.Errorf("%s differs between 1 and %d workers:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
					name, workers, want[name], workers, got[name])
			}
		}
	}
}

// TestPipelineWorkerSweepSmoke exercises odd worker counts end to end.
func TestPipelineWorkerSweepSmoke(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	var want string
	for i, workers := range []int{1, 3, 5, 16} {
		got := Table3(generatePair(pipeline.Config{Workers: workers}, scale))
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("Table3 at %d workers differs from 1 worker", workers)
		}
	}
}
