package analysis

import (
	"bytes"
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

// matchesOracle requires tables to equal those of the oracle's runs
// folded through the detector's fold: every count and sum exactly.
func matchesOracle(t *testing.T, what string, tables RunTables, oracle []OracleRun) {
	t.Helper()
	if want := OracleTables(oracle); tables != want {
		t.Fatalf("%s: tables differ from the oracle's:\n got %+v\nwant %+v", what, tables, want)
	}
}

// fuzzWindowsMS are the windows the sweep runs at, Table 3's and Figure
// 1's; run detection takes one of them, or an infinite one, under which
// the head's cut needs its smallest T as well as its largest.
var fuzzWindowsMS = []float64{0, 5, 10, 50}

// FuzzRunsStreamOracle drives one access sequence through the streaming
// RunDetector and ReorderSweeper, in one pass, split in two merged
// partials and split in three merged as (a+b)+c and as a+(b+c), and
// through the whole-list oracle. The run tables must equal the oracle's
// exactly, the two groupings must write the same state, and the sweep
// points must be equal. A merge may refuse a split only where the
// stream is not time-ordered.
func FuzzRunsStreamOracle(f *testing.F) {
	ramp := func(n int, c byte) []byte {
		b := make([]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			b = append(b, c, byte(255-i*7))
		}
		return b
	}
	f.Add(ramp(40, 0x61), uint8(1), uint16(20), uint16(9))    // 5 ms window, steps of 0.1 ms
	f.Add(ramp(40, 0x30), uint8(2), uint16(7), uint16(20))    // equal timestamps
	f.Add(ramp(40, 0x41), uint8(3), uint16(13), uint16(5))    // T stepping backwards
	f.Add(ramp(300, 0x6f), uint8(8), uint16(150), uint16(77)) // 1.5 ms steps, 1 ms idle gap
	f.Add(append(ramp(17, 0x61), 0x00, 0x04, 0x10, 0x08, 0x20, 0x0c, 0x61, 0x00), uint8(13), uint16(18), uint16(3))
	f.Add(append(append(ramp(20, 0x62), ramp(20, 0x10)...), ramp(20, 0x63)...), uint8(2), uint16(30), uint16(15))
	// Under an infinite window a finite T keeps its window open past
	// +Inf: the third access is not the cut.
	f.Add([]byte{0x61, 0x08, 0x10, 0x04, 0x61, 0x00, 0x10, 0x00}, uint8(4), uint16(2), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, cut, cut2 uint16) {
		if len(data) > 1200 {
			data = data[:1200]
		}
		ops := fuzzOps(data)
		files := addAll(make(AccessMap), ops)
		k := int(cut) % (len(ops) + 1)
		k2 := k + int(cut2)%(len(ops)-k+1)
		ordered := timeOrdered(ops)

		cfg := RunConfig{
			ReorderWindow: append(fuzzWindowsMS, math.Inf(1))[sel%5] / 1000,
			IdleGap:       []float64{30, 0.001}[sel/5%2],
			JumpBlocks:    []int64{10, 1}[sel/10%2],
		}
		oracle := DetectRunsInFiles(files, cfg)
		matchesOracle(t, "one pass", addAll(NewRunDetector(cfg), ops).Tables(), oracle)
		piece := func(ops []*core.Op) *RunDetector { return addAll(NewRunDetector(cfg), ops) }
		// merge folds ds into a fresh detector, which keeps the first
		// refusal among them and its own.
		merge := func(ds ...*RunDetector) *RunDetector {
			m := NewRunDetector(cfg)
			for _, d := range ds {
				m.Merge(d, Filter{})
				if m.err == nil {
					m.err = d.err
				}
			}
			return m
		}
		a, b, c := ops[:k], ops[k:k2], ops[k2:]
		halves := merge(piece(ops[:k]), piece(ops[k:]))
		left := merge(merge(piece(a), piece(b)), piece(c))
		right := merge(piece(a), merge(piece(b), piece(c)))
		for _, m := range []struct {
			what string
			d    *RunDetector
		}{
			{fmt.Sprintf("split at %d", k), halves},
			{fmt.Sprintf("(a+b)+c cut at %d and %d", k, k2), left},
			{fmt.Sprintf("a+(b+c) cut at %d and %d", k, k2), right},
		} {
			if err := m.d.Err(); err != nil {
				if ordered {
					t.Fatalf("%s of a time-ordered stream: %v", m.what, err)
				}
			} else {
				matchesOracle(t, m.what, m.d.Tables(), oracle)
			}
		}
		if left.Err() == nil && right.Err() == nil && !bytes.Equal(encodeState(t, left), encodeState(t, right)) {
			t.Fatalf("cut at %d and %d: (a+b)+c and a+(b+c) write different states", k, k2)
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
