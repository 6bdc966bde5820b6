package repro

import (
	"testing"

	"repro/internal/pipeline"
)

// TestTablesByteIdenticalAcrossWorkers is the end-to-end determinism
// guarantee for the sharded pipeline: every table and figure renders
// byte-identically whether the analyses run on one worker (the
// sequential reference) or many.
func TestTablesByteIdenticalAcrossWorkers(t *testing.T) {
	scale := SmallScale()
	campus := GenerateCampus(scale)
	eecs := GenerateEECS(scale)

	render := func(workers int) map[string]string {
		campus.Pipeline = pipeline.Config{Workers: workers}
		eecs.Pipeline = pipeline.Config{Workers: workers}
		return renderedExperiments(campus, eecs)
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

// TestPipelineDefaultConfig checks that the zero-value Trace runs the
// tables without explicit pipeline configuration.
func TestPipelineDefaultConfig(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	campus := GenerateCampus(scale)
	eecs := GenerateEECS(scale)
	for i, fn := range []func(*Trace, *Trace) string{Table2, Table5} {
		if out := fn(campus, eecs); len(out) == 0 {
			t.Errorf("experiment %d: empty output with default pipeline config", i)
		}
	}
	if campus.Pipeline != (pipeline.Config{}) {
		t.Errorf("running tables mutated the trace's pipeline config: %+v", campus.Pipeline)
	}
}

// TestPipelineWorkerSweepSmoke exercises odd worker counts end to end.
func TestPipelineWorkerSweepSmoke(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	campus := GenerateCampus(scale)
	eecs := GenerateEECS(scale)
	var want string
	for i, workers := range []int{1, 3, 5, 16} {
		campus.Pipeline.Workers = workers
		eecs.Pipeline.Workers = workers
		got := Table3(campus, eecs)
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("Table3 at %d workers differs from 1 worker", workers)
		}
	}
}
