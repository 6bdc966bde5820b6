package analysis

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// fuzzOps turns bytes into a data-op stream through fuzzAccesses, every
// third access on a second file.
func fuzzOps(data []byte) []*core.Op {
	accs := fuzzAccesses(data)
	ops := make([]*core.Op, len(accs))
	for i, a := range accs {
		fh := "stream-a"
		if i%3 == 2 {
			fh = "stream-b"
		}
		ops[i] = mkOp(a.T, fh, a.Write, a.Offset, a.Count, a.Size, a.EOF)
	}
	return ops
}

// timeOrdered reports whether every T is finite and none is below the
// one before, as in a trace the joiner emits.
func timeOrdered(ops []*core.Op) bool {
	for i, op := range ops {
		if math.IsNaN(op.T) || math.IsInf(op.T, 0) || (i > 0 && op.T < ops[i-1].T) {
			return false
		}
	}
	return true
}

// sameRuns requires runs to equal the oracle's run for run, and the
// Table 3 and Figure 2 and 5 projections of both to be equal bit for
// bit (%v prints a float's shortest exact spelling).
func sameRuns(t *testing.T, what string, runs []Run, oracle []OracleRun) {
	t.Helper()
	want := runsOf(oracle)
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"runs", runs, want},
		{"Tabulate", Tabulate(runs), Tabulate(want)},
		{"SizeProfile", SizeProfile(runs), SizeProfile(want)},
		{"SequentialityProfile", SequentialityProfile(runs), SequentialityProfile(want)},
	} {
		if g, w := fmt.Sprintf("%+v", c.got), fmt.Sprintf("%+v", c.want); g != w {
			t.Fatalf("%s: %s differs from the oracle's:\n got %s\nwant %s", what, c.name, g, w)
		}
	}
}

// fuzzWindowsMS are the windows the sweep runs at, Table 3's and Figure
// 1's; run detection takes one of them, or an infinite one, under which
// the head's cut needs its smallest T as well as its largest.
var fuzzWindowsMS = []float64{0, 5, 10, 50}

// FuzzRunsStreamOracle drives one access sequence through the streaming
// RunDetector and ReorderSweeper, in one pass and split in two merged
// partials, and through the whole-list oracle. The runs, Table 3, both
// profiles and the sweep points must be equal. A merge may refuse a
// split only where the stream is not time-ordered.
func FuzzRunsStreamOracle(f *testing.F) {
	ramp := func(n int, c byte) []byte {
		b := make([]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			b = append(b, c, byte(255-i*7))
		}
		return b
	}
	f.Add(ramp(40, 0x61), uint8(1), uint16(20))   // 5 ms window, steps of 0.1 ms
	f.Add(ramp(40, 0x30), uint8(2), uint16(7))    // equal timestamps
	f.Add(ramp(40, 0x41), uint8(3), uint16(13))   // T stepping backwards
	f.Add(ramp(300, 0x6f), uint8(8), uint16(150)) // 1.5 ms steps, 1 ms idle gap
	f.Add(append(ramp(17, 0x61), 0x00, 0x04, 0x10, 0x08, 0x20, 0x0c, 0x61, 0x00), uint8(13), uint16(18))
	f.Add(append(append(ramp(20, 0x62), ramp(20, 0x10)...), ramp(20, 0x63)...), uint8(2), uint16(30))
	// Under an infinite window a finite T keeps its window open past
	// +Inf: the third access is not the cut.
	f.Add([]byte{0x61, 0x08, 0x10, 0x04, 0x61, 0x00, 0x10, 0x00}, uint8(4), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, cut uint16) {
		if len(data) > 1200 {
			data = data[:1200]
		}
		ops := fuzzOps(data)
		files := addAll(make(AccessMap), ops)
		k := int(cut) % (len(ops) + 1)
		ordered := timeOrdered(ops)

		cfg := RunConfig{
			ReorderWindow: append(fuzzWindowsMS, math.Inf(1))[sel%5] / 1000,
			IdleGap:       []float64{30, 0.001}[sel/5%2],
			JumpBlocks:    []int64{10, 1}[sel/10%2],
		}
		oracle := DetectRunsInFiles(files, cfg)
		sameRuns(t, "one pass", addAll(NewRunDetector(cfg), ops).Runs(), oracle)
		runs := NewRunDetector(cfg)
		runs.Merge(addAll(NewRunDetector(cfg), ops[:k]), Filter{})
		runs.Merge(addAll(NewRunDetector(cfg), ops[k:]), Filter{})
		if err := runs.Err(); err != nil {
			if ordered {
				t.Fatalf("split at %d of a time-ordered stream: %v", k, err)
			}
		} else {
			sameRuns(t, fmt.Sprintf("split at %d", k), runs.Runs(), oracle)
		}

		want := fmt.Sprintf("%+v", OracleSweep(files, fuzzWindowsMS))
		if got := fmt.Sprintf("%+v", addAll(NewReorderSweeper(fuzzWindowsMS), ops).Points()); got != want {
			t.Fatalf("sweep: %s, oracle %s", got, want)
		}
		sweep := NewReorderSweeper(fuzzWindowsMS)
		sweep.Merge(addAll(NewReorderSweeper(fuzzWindowsMS), ops[:k]), Filter{})
		sweep.Merge(addAll(NewReorderSweeper(fuzzWindowsMS), ops[k:]), Filter{})
		if err := sweep.Err(); err != nil {
			if ordered {
				t.Fatalf("sweep split at %d of a time-ordered stream: %v", k, err)
			}
		} else if got := fmt.Sprintf("%+v", sweep.Points()); got != want {
			t.Fatalf("sweep split at %d: %s, oracle %s", k, got, want)
		}
	})
}
