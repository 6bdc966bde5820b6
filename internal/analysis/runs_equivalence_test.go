package analysis_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// traceStreams generates a CAMPUS and an EECS op stream dense enough
// that a 10 ms window holds many mailbox reads. The generator's records
// go to the joiner unsorted, as nfsgen writes them.
func traceStreams(t *testing.T) map[string][]*core.Op {
	t.Helper()
	gen := func(run func(client.Sink)) []*core.Op {
		j := pipeline.NewPushJoiner()
		var ops []*core.Op
		run(client.FuncSink(func(r *core.Record, _ int) { ops = j.Push(r, ops) }))
		return j.Drain(ops)
	}
	return map[string][]*core.Op{
		"campus": gen(func(s client.Sink) {
			workload.NewCampus(workload.DefaultCampusConfig(20, 0.5, 20011021), s).Run()
		}),
		"eecs": gen(func(s client.Sink) {
			workload.NewEECS(workload.DefaultEECSConfig(4, 0.5, 20011021), s).Run()
		}),
	}
}

// accessMap groups ops into per-file access lists, as the run reducers
// do.
func accessMap(ops []*core.Op) analysis.AccessMap {
	m := make(analysis.AccessMap)
	for _, op := range ops {
		m.Add(op)
	}
	return m
}

// sortedFiles lists a map's handles in spelling order, the order runs
// are reported in.
func sortedFiles(m analysis.AccessMap) []core.FH {
	fhs := make([]core.FH, 0, len(m))
	for fh := range m {
		fhs = append(fhs, fh)
	}
	sort.Slice(fhs, func(i, j int) bool { return fhs[i].String() < fhs[j].String() })
	return fhs
}

func addAll[R interface{ Add(*core.Op) }](r R, ops []*core.Op) R {
	for _, op := range ops {
		r.Add(op)
	}
	return r
}

// TestSortWindowMatchesOracleOnTraces: on every file of generated CAMPUS
// and EECS traces, at every window Figure 1 and Table 3 use, the blocked
// sort swaps exactly what the linear scan swaps.
func TestSortWindowMatchesOracleOnTraces(t *testing.T) {
	for name, ops := range traceStreams(t) {
		m := accessMap(ops)
		accesses, swapped := 0, 0
		for _, accs := range m {
			accesses += len(accs)
			for _, wms := range []float64{0, 1, 5, 10, 50} {
				got := append([]analysis.Access(nil), accs...)
				want := append([]analysis.Access(nil), accs...)
				gs, ws := analysis.SortWindow(got, wms/1000), analysis.SortWindowOracle(want, wms/1000)
				if gs != ws || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s at %vms, %d accesses: %d swaps, oracle %d", name, wms, len(accs), gs, ws)
				}
				swapped += gs
			}
		}
		if accesses < 5000 || swapped == 0 {
			t.Fatalf("%s: %d accesses, %d swaps: the trace does not exercise the sort", name, accesses, swapped)
		}
	}
}

// TestFanOutMatchesSerial: the run list and the reorder sweep computed
// across goroutines equal a serial loop over the files in spelling
// order — run by run and point by point — at GOMAXPROCS 1 and 4.
func TestFanOutMatchesSerial(t *testing.T) {
	windows := []float64{0, 1, 2, 5, 10, 20, 50}
	for name, ops := range traceStreams(t) {
		m := accessMap(ops)
		for _, cfg := range []analysis.RunConfig{analysis.DefaultRunConfig(10), {IdleGap: 30, JumpBlocks: 1}} {
			// Serial reference: sort a copy of each file with the oracle
			// (a zero window means no sorting), then split it alone.
			var want []analysis.Run
			for _, fh := range sortedFiles(m) {
				accs := append([]analysis.Access(nil), m[fh]...)
				if cfg.ReorderWindow > 0 {
					analysis.SortWindowOracle(accs, cfg.ReorderWindow)
				}
				single := analysis.RunConfig{IdleGap: cfg.IdleGap, JumpBlocks: cfg.JumpBlocks}
				want = append(want, analysis.DetectRunsInFiles(map[core.FH][]analysis.Access{fh: accs}, single)...)
			}
			total := 0
			for _, accs := range m {
				total += len(accs)
			}
			var wantPts []analysis.ReorderSweepPoint
			for _, wms := range windows {
				swaps := 0
				for _, accs := range m {
					swaps += analysis.SortWindowOracle(append([]analysis.Access(nil), accs...), wms/1000)
				}
				wantPts = append(wantPts, analysis.ReorderSweepPoint{WindowMS: wms, SwappedPct: 100 * float64(swaps) / float64(total)})
			}

			for _, procs := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/window=%v/procs=%d", name, cfg.ReorderWindow, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got := addAll(analysis.NewRunDetector(cfg), ops).Runs()
					if len(got) != len(want) {
						t.Fatalf("%d runs, serial %d", len(got), len(want))
					}
					for i := range got {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("run %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
						}
					}
					for i, p := range addAll(analysis.NewReorderSweeper(windows), ops).Points() {
						if p != wantPts[i] {
							t.Fatalf("point %d: %+v, serial %+v", i, p, wantPts[i])
						}
					}
				})
			}
		}
	}
}

// TestForkedFinishSurvivesLaterAdds is the nfsmond scrape path: a
// snapshot forked from a live engine is finished and its result
// published while the engine keeps ingesting. Runs are capped views of
// the snapshot's lists, which share arrays with the live ones, so this
// pins that later appends on the live side never show through.
func TestForkedFinishSurvivesLaterAdds(t *testing.T) {
	ops := traceStreams(t)["campus"]
	cut := len(ops) / 2
	for _, window := range []float64{0, 10} {
		runs := &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(window)}
		sweep := &pipeline.ReorderSweepAnalyzer{WindowsMS: []float64{0, 5, 10}}
		lv := pipeline.NewLive(pipeline.Config{Workers: 2}, runs, sweep)
		for _, op := range ops[:cut] {
			lv.Feed(op)
		}
		snap, err := lv.Fork()
		if err != nil {
			t.Fatal(err)
		}
		snap.Finish()
		render := func() string {
			return fmt.Sprintf("%+v\n%+v", snap.Analyzers[0].(*pipeline.RunsAnalyzer).Result,
				snap.Analyzers[1].(*pipeline.ReorderSweepAnalyzer).Result)
		}
		published := render()
		for _, op := range ops[cut:] {
			lv.Feed(op)
		}
		lv.Finish()
		if render() != published {
			t.Fatalf("window %vms: ingest after the forked finish changed the published result", window)
		}
		if len(runs.Result) <= len(snap.Analyzers[0].(*pipeline.RunsAnalyzer).Result) {
			t.Fatalf("window %vms: the live engine saw no more runs after the fork", window)
		}
	}
}
