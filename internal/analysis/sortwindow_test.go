package analysis

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// sortWindowOracle is the reorder-window sort as the paper states it: a
// fresh linear scan of the whole window for every access. SortWindow
// must perform exactly its swaps.
func sortWindowOracle(accs []Access, w float64) int {
	swaps := 0
	for i := 0; i < len(accs); i++ {
		best := i
		for j := i + 1; j < len(accs) && accs[j].T-accs[i].T <= w; j++ {
			if accs[j].Offset < accs[best].Offset {
				best = j
			}
		}
		if best != i && accs[best].Offset < accs[i].Offset {
			accs[i], accs[best] = accs[best], accs[i]
			swaps++
		}
	}
	return swaps
}

// sameAccesses compares access lists field by field, T by its bits, so
// NaN timestamps compare equal to themselves.
func sameAccesses(a, b []Access) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.T) != math.Float64bits(y.T) {
			return false
		}
		x.T, y.T = 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// fuzzAccesses turns bytes into an access list, two bytes an access. The
// high nibble of the first byte picks the timestamp: NaN, +Inf, -Inf,
// equal to the previous one, a step back (non-monotone T), or a step
// forward of up to 1.5 ms; the second byte picks a small offset (so
// offsets tie) and the flags.
func fuzzAccesses(data []byte) []Access {
	var accs []Access
	t := 0.0
	for ; len(data) >= 2; data = data[2:] {
		c, o := data[0], data[1]
		step := float64(c&15) * 1e-4
		switch c >> 4 {
		case 0:
			t = math.NaN()
		case 1:
			t = math.Inf(1)
		case 2:
			t = math.Inf(-1)
		case 3:
		case 4, 5:
			t -= step
		default:
			t += step
		}
		if c>>4 > 3 && (math.IsNaN(t) || math.IsInf(t, 0)) {
			t = step
		}
		accs = append(accs, Access{
			T: t, Offset: uint64(o>>2) * BlockSize, Count: BlockSize,
			Write: o&1 != 0, EOF: o&2 != 0, Size: uint64(o),
		})
	}
	return accs
}

// fuzzWindows are the windows a fuzz input selects from; the last slot
// takes the input's own float, which may be NaN or negative.
var fuzzWindows = []float64{0, 1e-9, 1e-3, 0.005, 0.05, 1e300, math.Inf(1)}

// FuzzSortWindowEquivalence: on any access list and window, the blocked
// SortWindow performs as many swaps as the linear scan and leaves the
// same slice.
func FuzzSortWindowEquivalence(f *testing.F) {
	ramp := func(n int, c byte) []byte {
		b := make([]byte, 0, 2*n)
		for i := 0; i < n; i++ {
			b = append(b, c, byte(255-i*7))
		}
		return b
	}
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 31, 33} {
		f.Add(ramp(n, 0x61), uint8(3), 0.0)
	}
	f.Add(ramp(40, 0x30), uint8(0), 0.0) // equal timestamps
	f.Add(ramp(40, 0x41), uint8(4), 0.0) // T stepping backwards
	f.Add(ramp(33, 0x6f), uint8(5), 0.0) // huge window
	f.Add(append(ramp(17, 0x61), 0x00, 0x04, 0x10, 0x08, 0x20, 0x0c, 0x61, 0x00), uint8(6), 0.0)
	f.Add(ramp(20, 0x61), uint8(7), math.NaN())
	f.Add(ramp(20, 0x61), uint8(7), -0.001)
	f.Fuzz(func(t *testing.T, data []byte, wsel uint8, wraw float64) {
		// Both scans are quadratic under a huge window; a thousand
		// accesses cover every block shape.
		if len(data) > 2000 {
			data = data[:2000]
		}
		w := wraw
		if int(wsel)%(len(fuzzWindows)+1) < len(fuzzWindows) {
			w = fuzzWindows[int(wsel)%(len(fuzzWindows)+1)]
		}
		got := fuzzAccesses(data)
		want := fuzzAccesses(data)
		gs, ws := SortWindow(got, w), sortWindowOracle(want, w)
		if gs != ws || !sameAccesses(got, want) {
			t.Fatalf("window %v over %d accesses: %d swaps, oracle %d; lists equal: %v",
				w, len(got), gs, ws, sameAccesses(got, want))
		}
	})
}

// aliasingDetector holds two files of a stream that breaks runs
// often (EOF every seventh access), under the given reorder window.
func aliasingDetector(window float64) *RunDetector {
	r := NewRunDetector(RunConfig{ReorderWindow: window, IdleGap: 30, JumpBlocks: 10})
	for i := 0; i < 200; i++ {
		fh := "alias-a"
		if i%3 == 0 {
			fh = "alias-b"
		}
		r.Add(mkOp(float64(i)*0.001, fh, i%2 == 0, uint64((i*37)%50)*BlockSize, BlockSize, 1<<20, i%7 == 6))
	}
	return r
}

func cloneFiles(m AccessMap) AccessMap {
	out := make(AccessMap, len(m))
	for fh, accs := range m {
		out[fh] = append([]Access(nil), accs...)
	}
	return out
}

// TestRunAccessesAreCappedViews: runs share backing arrays with each
// other (and, without a reorder window, with the reducer's lists), so
// each is capped at its length — appending to one run reallocates
// instead of overwriting the next — and finishing never writes the
// reducer's lists.
func TestRunAccessesAreCappedViews(t *testing.T) {
	for _, window := range []float64{0, 0.010} {
		r := aliasingDetector(window)
		before := cloneFiles(r.files)
		runs := r.Runs()
		points := NewReorderSweeper([]float64{0, 1, 5, 50})
		points.files = r.files
		points.Points()
		if !reflect.DeepEqual(r.files, before) {
			t.Fatalf("window %v: finishing changed the reducer's access lists", window)
		}
		if len(runs) < 10 {
			t.Fatalf("window %v: only %d runs", window, len(runs))
		}
		for i := 0; i+1 < len(runs); i++ {
			next := append([]Access(nil), runs[i+1].Accesses...)
			runs[i].Accesses = append(runs[i].Accesses, Access{T: -1, Offset: 1 << 40})
			if !reflect.DeepEqual(runs[i+1].Accesses, next) {
				t.Fatalf("window %v: appending to run %d changed run %d", window, i, i+1)
			}
		}
		// Adding to the reducer after a finish leaves the runs alone.
		last := append([]Access(nil), runs[len(runs)-1].Accesses...)
		r.Add(mkOp(1, "alias-a", false, 0, BlockSize, 1<<20, false))
		r.Add(mkOp(1, "alias-b", false, 0, BlockSize, 1<<20, false))
		if !reflect.DeepEqual(runs[len(runs)-1].Accesses, last) {
			t.Fatalf("window %v: Add after the finish changed a published run", window)
		}
	}
}

// TestSplitRunsEmpty: a file with no accesses has no runs.
func TestSplitRunsEmpty(t *testing.T) {
	if runs := splitRuns(nil, core.InternFH("empty"), nil, DefaultRunConfig(10)); runs != nil {
		t.Fatalf("runs of no accesses: %v", runs)
	}
	if runs := DetectRunsInFiles(map[core.FH][]Access{}, DefaultRunConfig(10)); runs != nil {
		t.Fatalf("runs of no files: %v", runs)
	}
}
