package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// addAll feeds ops to a reducer in order and returns it.
func addAll[R interface{ Add(*core.Op) }](r R, ops []*core.Op) R {
	for _, op := range ops {
		r.Add(op)
	}
	return r
}

// mkOp builds a read or write op on a file.
func mkOp(t float64, fh string, write bool, off uint64, count uint32, size uint64, eof bool) *core.Op {
	proc := core.ProcRead
	if write {
		proc = core.ProcWrite
	}
	return &core.Op{
		T: t, Replied: true, Proc: proc, FH: core.InternFH(fh),
		Offset: off, Count: count, RCount: count, Size: size, EOF: eof,
	}
}

// seqReadOps builds a fully sequential read of a file.
func seqReadOps(fh string, size uint64, t0 float64) []*core.Op {
	var ops []*core.Op
	t := t0
	for off := uint64(0); off < size; off += 8192 {
		n := uint32(8192)
		if rem := size - off; rem < 8192 {
			n = uint32(rem)
		}
		ops = append(ops, mkOp(t, fh, false, off, n, size, off+uint64(n) >= size))
		t += 0.001
	}
	return ops
}

func TestDetectRunsEntireRead(t *testing.T) {
	ops := seqReadOps("f1", 64*1024, 1.0)
	runs := addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
	if len(runs) != 1 {
		t.Fatalf("%d runs", len(runs))
	}
	r := runs[0]
	if r.Kind != RunRead || r.Pattern != PatternEntire {
		t.Fatalf("run: kind=%v pattern=%v", r.Kind, r.Pattern)
	}
	if r.Bytes != 64*1024 {
		t.Fatalf("bytes %d", r.Bytes)
	}
	if r.Metric != 1 || r.MetricK1 != 1 {
		t.Fatalf("metric %v/%v", r.Metric, r.MetricK1)
	}
}

func TestDetectRunsSequentialPartial(t *testing.T) {
	// Sequential but not from 0 and not to EOF.
	var ops []*core.Op
	for i := 0; i < 5; i++ {
		ops = append(ops, mkOp(1.0+float64(i)*0.001, "f", false,
			8192*uint64(i+2), 8192, 1<<20, false))
	}
	runs := addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
	if len(runs) != 1 || runs[0].Pattern != PatternSequential {
		t.Fatalf("runs: %+v", runs)
	}
}

func TestDetectRunsRandom(t *testing.T) {
	offsets := []uint64{0, 40 * 8192, 3 * 8192, 90 * 8192, 11 * 8192}
	var ops []*core.Op
	for i, off := range offsets {
		ops = append(ops, mkOp(1.0+float64(i)*0.001, "f", false, off, 8192, 1<<20, false))
	}
	runs := addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
	if len(runs) != 1 || runs[0].Pattern != PatternRandom {
		t.Fatalf("runs: %+v", runs)
	}
	if runs[0].Metric > 0.6 {
		t.Fatalf("metric %v for random run", runs[0].Metric)
	}
}

func TestSmallForwardJumpStaysSequential(t *testing.T) {
	// The paper's example: 0k(8k), 8k(8k), 16k(7k), 24k(8k) is
	// sequential despite the missing 1k (counts round to blocks).
	ops := []*core.Op{
		mkOp(1.000, "f", false, 0, 8192, 1<<20, false),
		mkOp(1.001, "f", false, 8192, 8192, 1<<20, false),
		mkOp(1.002, "f", false, 16384, 7168, 1<<20, false),
		mkOp(1.003, "f", false, 24576, 8192, 1<<20, false),
	}
	runs := addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
	if len(runs) != 1 || runs[0].Pattern != PatternSequential {
		t.Fatalf("runs: %+v", runs)
	}
	// A 5-block forward jump is fine with k=10 but not with k=1.
	ops = append(ops, mkOp(1.004, "f", false, 8192*9, 8192, 1<<20, false))
	runs = addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
	if runs[0].Pattern != PatternSequential {
		t.Fatalf("k=10 jump broke the run: %+v", runs[0])
	}
	cfg := DefaultRunConfig(10)
	cfg.JumpBlocks = 1
	runs = addAll(NewRunDetector(cfg), ops).Runs()
	if runs[0].Pattern != PatternRandom {
		t.Fatalf("k=1 did not break the run: %+v", runs[0])
	}
}

func TestBackwardSeekBreaksSequential(t *testing.T) {
	ops := []*core.Op{
		mkOp(1.000, "f", false, 8192, 8192, 1<<20, false),
		mkOp(1.001, "f", false, 16384, 8192, 1<<20, false),
		mkOp(1.002, "f", false, 0, 8192, 1<<20, false), // back
	}
	runs := addAll(NewRunDetector(RunConfig{IdleGap: 30, JumpBlocks: 10}), ops).Runs()
	if len(runs) != 1 || runs[0].Pattern != PatternRandom {
		t.Fatalf("runs: %+v", runs)
	}
	// But the small back-jump still counts toward the k-metric.
	if runs[0].Metric < 0.99 {
		t.Fatalf("metric %v; small back jump should be k-consecutive", runs[0].Metric)
	}
}

func TestRunBreaksOnEOFAndIdle(t *testing.T) {
	var ops []*core.Op
	ops = append(ops, seqReadOps("f", 16384, 1.0)...) // ends with EOF
	ops = append(ops, seqReadOps("f", 16384, 2.0)...) // new run
	// Idle gap: third run starts 100s later without EOF before it.
	ops = append(ops, mkOp(100.0, "f", false, 0, 8192, 16384, false))
	ops = append(ops, mkOp(200.0, "f", false, 8192, 8192, 16384, false))
	runs := addAll(NewRunDetector(DefaultRunConfig(0)), ops).Runs()
	if len(runs) != 4 {
		t.Fatalf("%d runs, want 4 (two EOF-terminated, two idle-split)", len(runs))
	}
}

func TestSingletonClassification(t *testing.T) {
	// Partial singleton → sequential; whole-file singleton → entire.
	part := []*core.Op{mkOp(1, "a", true, 8192, 8192, 1<<20, false)}
	whole := []*core.Op{mkOp(1, "b", false, 0, 4096, 4096, true)}
	runs := addAll(NewRunDetector(DefaultRunConfig(10)), append(part, whole...)).Runs()
	if len(runs) != 2 {
		t.Fatalf("%d runs", len(runs))
	}
	for _, r := range runs {
		switch r.FH.String() {
		case "a":
			if r.Pattern != PatternSequential || r.Kind != RunWrite {
				t.Fatalf("partial singleton: %+v", r)
			}
		case "b":
			if r.Pattern != PatternEntire || r.Kind != RunRead {
				t.Fatalf("whole singleton: %+v", r)
			}
		}
	}
}

func TestReadWriteRun(t *testing.T) {
	ops := []*core.Op{
		mkOp(1.0, "f", false, 0, 8192, 1<<20, false),
		mkOp(1.1, "f", true, 8192, 8192, 1<<20, false),
	}
	runs := addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
	if len(runs) != 1 || runs[0].Kind != RunReadWrite {
		t.Fatalf("runs: %+v", runs)
	}
}

func TestSortWindowRepairsReordering(t *testing.T) {
	// A sequential stream with adjacent swaps within 2ms.
	ops := []*core.Op{
		mkOp(1.000, "f", false, 0, 8192, 1<<20, false),
		mkOp(1.001, "f", false, 16384, 8192, 1<<20, false), // swapped pair
		mkOp(1.0015, "f", false, 8192, 8192, 1<<20, false),
		mkOp(1.003, "f", false, 24576, 8192, 1<<20, false),
	}
	// Without sorting: random.
	raw := addAll(NewRunDetector(RunConfig{IdleGap: 30, JumpBlocks: 1}), ops).Runs()
	if raw[0].Pattern != PatternRandom {
		t.Fatalf("raw: %+v", raw[0])
	}
	// With a 5ms window: sequential again.
	sorted := addAll(NewRunDetector(RunConfig{ReorderWindow: 0.005, IdleGap: 30, JumpBlocks: 1}), ops).Runs()
	if sorted[0].Pattern != PatternEntire && sorted[0].Pattern != PatternSequential {
		t.Fatalf("sorted: %+v", sorted[0])
	}
}

func TestSortWindowDoesNotMaskTrueRandomness(t *testing.T) {
	// Random accesses spaced 1s apart: a 10ms window must not "fix"
	// them.
	rng := rand.New(rand.NewSource(2))
	var ops []*core.Op
	for i := 0; i < 50; i++ {
		ops = append(ops, mkOp(float64(i), "f", false,
			uint64(rng.Intn(1000))*8192, 8192, 100<<20, false))
	}
	runs := addAll(NewRunDetector(RunConfig{ReorderWindow: 0.010, IdleGap: 30, JumpBlocks: 10}), ops).Runs()
	for _, r := range runs {
		if len(r.Accesses) > 3 && r.Pattern != PatternRandom {
			t.Fatalf("random stream classified %v", r.Pattern)
		}
	}
}

func TestReorderSweepShape(t *testing.T) {
	// Build a reordered sequential stream: ~10% adjacent swaps with
	// ~1ms skew, requests 2ms apart.
	rng := rand.New(rand.NewSource(3))
	var ops []*core.Op
	tt := 1.0
	for off := uint64(0); off < 4<<20; off += 8192 {
		ops = append(ops, mkOp(tt, "f", false, off, 8192, 4<<20, false))
		tt += 0.002
	}
	for i := 0; i < len(ops)-1; i++ {
		if rng.Float64() < 0.10 {
			ops[i].T, ops[i+1].T = ops[i+1].T, ops[i].T
			ops[i], ops[i+1] = ops[i+1], ops[i]
		}
	}
	pts := addAll(NewReorderSweeper([]float64{0, 1, 5, 10, 50}), ops).Points()
	if pts[0].SwappedPct != 0 {
		t.Fatalf("window 0 swapped %v%%", pts[0].SwappedPct)
	}
	// Swaps rise then plateau (the knee).
	if !(pts[2].SwappedPct > pts[1].SwappedPct || pts[1].SwappedPct > 0) {
		t.Fatalf("sweep not rising: %+v", pts)
	}
	last := pts[len(pts)-1].SwappedPct
	prev := pts[len(pts)-2].SwappedPct
	if last-prev > prev/2+1 {
		t.Fatalf("no knee: %+v", pts)
	}
	// At 5ms the sort should capture roughly the injected 10%.
	if pts[2].SwappedPct < 4 || pts[2].SwappedPct > 16 {
		t.Fatalf("5ms window swapped %.1f%%, want ≈10%%", pts[2].SwappedPct)
	}
}

func TestTabulate(t *testing.T) {
	var ops []*core.Op
	ops = append(ops, seqReadOps("r1", 32768, 1)...)
	ops = append(ops, seqReadOps("r2", 32768, 2)...)
	ops = append(ops, mkOp(3, "w1", true, 0, 8192, 8192, false))
	tab := Tabulate(addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs())
	if tab.TotalRuns != 3 {
		t.Fatalf("runs %d", tab.TotalRuns)
	}
	if tab.ReadPct < 60 || tab.WritePct < 30 {
		t.Fatalf("table: %+v", tab)
	}
	if tab.Read[PatternEntire] != 100 {
		t.Fatalf("read entire%% = %v", tab.Read[PatternEntire])
	}
}

func TestSizeProfile(t *testing.T) {
	var ops []*core.Op
	// 10 KB of bytes from a small file, 4 MB from a big one.
	ops = append(ops, mkOp(1, "small", false, 0, 10240, 10240, true))
	ops = append(ops, seqReadOps("big", 4<<20, 2)...)
	pts := SizeProfile(addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs())
	if len(pts) == 0 {
		t.Fatal("no profile")
	}
	// At 16 KB the small file's bytes are included: a small share.
	var at16k, at8m float64
	for _, p := range pts {
		if p.SizeCeil == 16*1024 {
			at16k = p.TotalPct
		}
		if p.SizeCeil == 8<<20 {
			at8m = p.TotalPct
		}
	}
	if at16k > 5 || at8m < 99 {
		t.Fatalf("profile: 16k=%.2f%% 8M=%.2f%%", at16k, at8m)
	}
	last := pts[len(pts)-1]
	if last.TotalPct < 99.9 {
		t.Fatalf("cumulative does not reach 100: %v", last.TotalPct)
	}
}

func TestSequentialityProfile(t *testing.T) {
	var ops []*core.Op
	// A long, highly sequential read run (4 MB).
	ops = append(ops, seqReadOps("seqfile", 4<<20, 1)...)
	// A long write run with 40% 20-block jumps: k10 metric ≈ 0.6.
	tt := 1000.0
	off := uint64(0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 512; i++ {
		ops = append(ops, mkOp(tt, "wfile", true, off, 8192, 64<<20, false))
		tt += 0.001
		if rng.Float64() < 0.4 {
			off += 8192 * 20
		} else {
			off += 8192
		}
	}
	runs := addAll(NewRunDetector(RunConfig{IdleGap: 30, JumpBlocks: 10}), ops).Runs()
	pts := SequentialityProfile(runs)
	var readAt4M, writeAt4M float64 = -1, -1
	for _, p := range pts {
		if p.BytesCeil == 4<<20 {
			readAt4M = p.ReadK10
			writeAt4M = p.WriteK10
		}
	}
	if readAt4M < 0.99 {
		t.Fatalf("sequential read metric %v", readAt4M)
	}
	if writeAt4M < 0.45 || writeAt4M > 0.75 {
		t.Fatalf("jumpy write metric %v, want ≈0.6", writeAt4M)
	}
	// Cumulative run percentages reach 100.
	if pts[len(pts)-1].CumRunsPct < 99.9 {
		t.Fatalf("cum runs %v", pts[len(pts)-1].CumRunsPct)
	}
}
