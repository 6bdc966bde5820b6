package repro

// The benchmark harness: trace generation, which is where every table
// and figure is computed (a Trace renders from results it already
// holds), the side experiments that simulate their own input, and
// ablations of the run-detection and anonymization choices. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks that time one reducer share small replayed op streams
// (built once, outside the timed loops).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/anon"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workload"
)

// benchScale is SmallScale over Sunday and Monday: the scale the
// generation benchmarks run and benchOps replays.
func benchScale() Scale {
	s := SmallScale()
	s.Days = 2
	return s
}

var (
	benchOnce      sync.Once
	benchCampusOps []*core.Op
)

func benchOps(b *testing.B) []*core.Op {
	b.Helper()
	benchOnce.Do(func() { benchCampusOps, _ = replay(joined(benchScale().campus, nil)) })
	return benchCampusOps
}

func BenchmarkExpNfsiod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := ExpNfsiod(); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkExpReadahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := ExpReadahead(); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Trace generation cost: the simulation and every analysis ---

func BenchmarkGenerateCampus(b *testing.B) {
	var ops int64
	for i := 0; i < b.N; i++ {
		ops = GenerateCampus(benchScale()).Stats.Ops
	}
	b.ReportMetric(float64(ops), "ops/trace")
}

func BenchmarkGenerateEECS(b *testing.B) {
	var ops int64
	for i := 0; i < b.N; i++ {
		ops = GenerateEECS(benchScale()).Stats.Ops
	}
	b.ReportMetric(float64(ops), "ops/trace")
}

// --- Ablations ---

// BenchmarkAblationWindow compares run detection across reorder window
// sizes; the reported metric is the random-read percentage, which the
// window exists to repair.
func BenchmarkAblationWindow(b *testing.B) {
	campus := benchOps(b)
	for _, winMS := range []float64{0, 5, 10, 50} {
		name := map[float64]string{0: "w0ms", 5: "w5ms", 10: "w10ms", 50: "w50ms"}[winMS]
		b.Run(name, func(b *testing.B) {
			var randomPct float64
			for i := 0; i < b.N; i++ {
				tabs := addAll(analysis.NewRunDetector(analysis.RunConfig{ReorderWindow: winMS / 1000, IdleGap: 30, JumpBlocks: 10}), campus).Tables()
				tab := tabs.Tabulate()
				randomPct = tab.Read[analysis.PatternRandom]
			}
			b.ReportMetric(randomPct, "%random-reads")
		})
	}
}

// BenchmarkAblationK compares the k=1 strict and k=10 jump-tolerant
// classifications.
func BenchmarkAblationK(b *testing.B) {
	campus := benchOps(b)
	for _, k := range []int64{1, 10} {
		name := map[int64]string{1: "k1", 10: "k10"}[k]
		b.Run(name, func(b *testing.B) {
			var randomPct float64
			for i := 0; i < b.N; i++ {
				tabs := addAll(analysis.NewRunDetector(analysis.RunConfig{ReorderWindow: 0.010, IdleGap: 30, JumpBlocks: k}), campus).Tables()
				tab := tabs.Tabulate()
				randomPct = tab.Write[analysis.PatternRandom]
			}
			b.ReportMetric(randomPct, "%random-writes")
		})
	}
}

// BenchmarkAblationBreak compares run-break idle gaps (5s vs 30s vs
// none), reporting the run count each rule produces.
func BenchmarkAblationBreak(b *testing.B) {
	campus := benchOps(b)
	for _, gap := range []float64{5, 30, 0} {
		name := map[float64]string{5: "gap5s", 30: "gap30s", 0: "eof-only"}[gap]
		b.Run(name, func(b *testing.B) {
			var runs int
			for i := 0; i < b.N; i++ {
				tabs := addAll(analysis.NewRunDetector(analysis.RunConfig{ReorderWindow: 0.010, IdleGap: gap, JumpBlocks: 10}), campus).Tables()
				runs = tabs.Tabulate().TotalRuns
			}
			b.ReportMetric(float64(runs), "runs")
		})
	}
}

// BenchmarkAblationAnon compares the paper's table-based anonymizer
// against a hash-style deterministic mapping (which the paper rejects
// for security, not speed — this quantifies the cost of doing it right).
func BenchmarkAblationAnon(b *testing.B) {
	names := make([]string, 2000)
	rng := rand.New(rand.NewSource(1))
	for i := range names {
		names[i] = randomName(rng)
	}
	b.Run("table-based", func(b *testing.B) {
		a := anon.New(anon.DefaultConfig(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Name(names[i%len(names)])
		}
	})
	b.Run("hash-based", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fnvName(names[i%len(names)])
		}
	})
}

func randomName(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 4 + rng.Intn(12)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = letters[rng.Intn(len(letters))]
	}
	if rng.Intn(2) == 0 {
		return string(buf) + ".c"
	}
	return string(buf)
}

// fnvName is the rejected hash-based alternative.
func fnvName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// --- Pipeline benchmarks ---

// BenchmarkPipelineWorkers measures the full analysis reducer suite
// (summary, hourly, raw+processed runs, block lifetimes) over the
// CAMPUS generator workload at 1, 4, and NumCPU workers — the
// before/after comparison for the sharded engine. The reported metric
// is analysis throughput in operations per second; output is
// byte-identical at every worker count (see
// TestTablesByteIdenticalAcrossWorkers).
func BenchmarkPipelineWorkers(b *testing.B) {
	campus := benchOps(b)
	newSet := func() []pipeline.Analyzer {
		return []pipeline.Analyzer{
			&pipeline.SummaryAnalyzer{},
			&pipeline.HourlyAnalyzer{},
			&pipeline.RunsAnalyzer{Config: analysis.RunConfig{
				ReorderWindow: 0.010, IdleGap: 30, JumpBlocks: 1}},
			&pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(10)},
			&pipeline.BlockLifeAnalyzer{Start: workload.Day + 9*workload.Hour,
				Phase: workload.Day, Margin: workload.Day},
		}
	}
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := pipeline.Config{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pipeline.RunSlice(cfg, campus, newSet()...)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(campus))*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkRecordMarshal measures trace-format serialization.
func BenchmarkRecordMarshal(b *testing.B) {
	rec := &core.Record{
		Time: 1003680000.004742, Kind: core.KindCall,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: core.ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: core.MustProc("read"),
		FH: core.InternFH("0000000000000007"), Offset: 8192, Count: 8192, UID: 501, GID: 100,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(rec.Marshal()) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkRecordUnmarshal measures trace-format parsing.
func BenchmarkRecordUnmarshal(b *testing.B) {
	rec := &core.Record{
		Time: 1003680000.004742, Kind: core.KindCall,
		Client: 0x0a000005, Port: 801, Server: 0x0a000001, Proto: core.ProtoUDP,
		XID: 0xa2f3, Version: 3, Proc: core.MustProc("read"),
		FH: core.InternFH("0000000000000007"), Offset: 8192, Count: 8192, UID: 501, GID: 100,
	}
	line := rec.Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.UnmarshalRecord(line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadAheadPolicies measures the §6.4 read-path simulation.
func BenchmarkReadAheadPolicies(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var reqs []server.ReadRequest
	for f := uint64(1); f <= 10; f++ {
		start := len(reqs)
		for bl := int64(0); bl < 256; bl++ {
			reqs = append(reqs, server.ReadRequest{File: f, Block: bl, NBlocks: 1})
		}
		for i := start; i < len(reqs)-1; i++ {
			if rng.Float64() < 0.10 {
				reqs[i], reqs[i+1] = reqs[i+1], reqs[i]
			}
		}
	}
	b.Run("strict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			server.RunReadPath(reqs, server.NewStrictSequential(8), 2048)
		}
	})
	b.Run("metric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			server.RunReadPath(reqs, server.NewMetricReadAhead(), 2048)
		}
	})
}

// BenchmarkNfsiodPool measures dispatch cost.
func BenchmarkNfsiodPool(b *testing.B) {
	p := client.NewPool(4, 1)
	t := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += 0.0001
		p.Dispatch(t)
	}
}

// finishOps are the op streams the finish benchmarks run over: CAMPUS
// at the benchmark's analyze_dist scale (100 users, half a day: ≈ 80 k
// accesses on ≈ 270 files, mailbox reads ≈ 85 µs apart) and EECS at
// analyze_binary's (4 clients, 1.5 days: many small files).
var (
	finishOnce   sync.Once
	finishCampus []*core.Op
	finishEECS   []*core.Op
)

func finishOps(b *testing.B) (campus, eecs []*core.Op) {
	b.Helper()
	finishOnce.Do(func() {
		finishCampus, _ = replay(joined(Scale{CampusUsers: 100, Days: 0.5, Seed: 101}.campus, nil))
		finishEECS, _ = replay(joined(Scale{EECSClients: 4, Days: 1.5, Seed: 101}.eecs, nil))
	})
	return finishCampus, finishEECS
}

// perAccess reports a finish benchmark's cost per access: time and heap
// allocations, measured over the whole timed loop.
func perAccess(b *testing.B, accesses int, run func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(accesses)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/access")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/access")
}

// mailboxOps is one mailbox read from start to end, a read every 85 µs
// as CAMPUS's busiest mailboxes are, with nfsiod reordering: within
// each group of four reads the offsets are shuffled. A 10 ms window
// then holds ≈ 118 pending accesses and a 50 ms one ≈ 590.
func mailboxOps(n int) []*core.Op {
	rng := rand.New(rand.NewSource(85))
	fh := core.InternFH("bench-mailbox")
	size := uint64(n) * 8192
	ops := make([]*core.Op, n)
	for i := range ops {
		ops[i] = &core.Op{T: float64(i) * 85e-6, Replied: true, Proc: core.ProcRead, FH: fh,
			Offset: uint64(i) * 8192, Count: 8192, RCount: 8192, Size: size, EOF: i == n-1}
	}
	for g := 0; g+4 <= n; g += 4 {
		rng.Shuffle(4, func(i, j int) { ops[g+i].Offset, ops[g+j].Offset = ops[g+j].Offset, ops[g+i].Offset })
	}
	return ops
}

// finishCases are the streams the run and sweep benchmarks run over.
func finishCases(b *testing.B) []struct {
	name string
	ops  []*core.Op
	wms  float64
} {
	campus, eecs := finishOps(b)
	return []struct {
		name string
		ops  []*core.Op
		wms  float64
	}{{"CAMPUS", campus, 10}, {"EECS", eecs, 5}, {"mailbox", mailboxOps(50000), 10}}
}

// dataAccesses counts the reads and writes of ops.
func dataAccesses(ops []*core.Op) int {
	n := 0
	for _, op := range ops {
		if op.IsRead() || op.IsWrite() {
			n++
		}
	}
	return n
}

// BenchmarkRunsFinish measures run detection per access, from Add
// through Tables, under the trace's own window: the reorder sort and the
// run splitting happen as accesses arrive, and the finish replays each
// file's head and flushes its pending window.
func BenchmarkRunsFinish(b *testing.B) {
	for _, c := range finishCases(b) {
		b.Run(c.name, func(b *testing.B) {
			cfg := analysis.DefaultRunConfig(c.wms)
			perAccess(b, dataAccesses(c.ops), func() { addAll(analysis.NewRunDetector(cfg), c.ops).Tables() })
		})
	}
}

// BenchmarkReorderSweep measures the Figure 1 sweep per access, from Add
// through Points, at the seven windows an nfsmond scrape reports.
func BenchmarkReorderSweep(b *testing.B) {
	for _, c := range finishCases(b) {
		if c.name == "EECS" {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			perAccess(b, dataAccesses(c.ops), func() {
				addAll(analysis.NewReorderSweeper([]float64{0, 1, 2, 5, 10, 20, 50}), c.ops).Points()
			})
		})
	}
}

// BenchmarkHourly measures the Figure 4 bucketing pass.
func BenchmarkHourly(b *testing.B) {
	campus := benchOps(b)
	span := benchScale().Days * workload.Day
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addAll(analysis.NewHourlyOpen(), campus).FixedTo(span)
	}
	b.SetBytes(int64(len(campus)))
}
