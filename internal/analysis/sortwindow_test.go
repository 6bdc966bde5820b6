package analysis

import (
	"bytes"
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

// streamSort runs the reorder-window pass over accs through a pending
// window, one access at a time as a reducer's Add does, writing each
// position back as it becomes final and the rest at the end, and
// returns the swaps.
func streamSort(accs []Access, w float64) int {
	var p window
	k := 0
	for _, a := range accs {
		p.push(a)
		for b, ok := p.pop(w, false); ok; b, ok = p.pop(w, false) {
			accs[k] = b
			k++
		}
	}
	for b, ok := p.pop(w, true); ok; b, ok = p.pop(w, true) {
		accs[k] = b
		k++
	}
	return p.swaps
}

// FuzzSortWindowEquivalence: on any access list and window, the pending
// window fed one access at a time, and the oracle's blocked SortWindow,
// perform as many swaps as the linear scan and leave the same list.
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
		// The scans are quadratic under a huge window; a thousand
		// accesses cover every block shape.
		if len(data) > 2000 {
			data = data[:2000]
		}
		w := wraw
		if int(wsel)%(len(fuzzWindows)+1) < len(fuzzWindows) {
			w = fuzzWindows[int(wsel)%(len(fuzzWindows)+1)]
		}
		want := fuzzAccesses(data)
		ws := sortWindowOracle(want, w)
		for name, sort := range map[string]func([]Access, float64) int{"pending window": streamSort, "blocked": SortWindow} {
			got := fuzzAccesses(data)
			if gs := sort(got, w); gs != ws || !sameAccesses(got, want) {
				t.Fatalf("%s, window %v over %d accesses: %d swaps, linear scan %d; lists equal: %v",
					name, w, len(got), gs, ws, sameAccesses(got, want))
			}
		}
	})
}

// aliasingOps is a stream on two files that breaks runs often (EOF
// every seventh access).
func aliasingOps() []*core.Op {
	var ops []*core.Op
	for i := 0; i < 200; i++ {
		fh := "alias-a"
		if i%3 == 0 {
			fh = "alias-b"
		}
		ops = append(ops, mkOp(float64(i)*0.001, fh, i%2 == 0, uint64((i*37)%50)*BlockSize, BlockSize, 1<<20, i%7 == 6))
	}
	return ops
}

func cloneFiles(m AccessMap) AccessMap {
	out := make(AccessMap, len(m))
	for fh, accs := range m {
		out[fh] = append([]Access(nil), accs...)
	}
	return out
}

// TestRunAccessesAreCappedViews: the oracle's runs share backing arrays
// with each other (and, without a reorder window, with the file's
// list), so each is capped at its length — appending to one run
// reallocates instead of overwriting the next — and the oracle never
// writes the lists it is given. The streaming detector's tables are
// those of the same runs, and finishing it leaves its state as it was.
func TestRunAccessesAreCappedViews(t *testing.T) {
	for _, window := range []float64{0, 0.010} {
		cfg := RunConfig{ReorderWindow: window, IdleGap: 30, JumpBlocks: 10}
		ops := aliasingOps()
		files := addAll(make(AccessMap), ops)
		before := cloneFiles(files)
		oracle := DetectRunsInFiles(files, cfg)
		OracleSweep(files, []float64{0, 1, 5, 50})
		if !reflect.DeepEqual(files, before) {
			t.Fatalf("window %v: the oracle changed the access lists", window)
		}
		if len(oracle) < 10 {
			t.Fatalf("window %v: only %d runs", window, len(oracle))
		}

		r := addAll(NewRunDetector(cfg), ops)
		held := encodeState(t, r)
		if got, want := r.Tables(), OracleTables(oracle); got != want {
			t.Fatalf("window %v: streaming tables differ from the oracle's:\n got %+v\nwant %+v", window, got, want)
		}
		if !bytes.Equal(encodeState(t, r), held) {
			t.Fatalf("window %v: finishing changed the detector's state", window)
		}

		for i := 0; i+1 < len(oracle); i++ {
			next := append([]Access(nil), oracle[i+1].Accesses...)
			oracle[i].Accesses = append(oracle[i].Accesses, Access{T: -1, Offset: 1 << 40})
			if !reflect.DeepEqual(oracle[i+1].Accesses, next) {
				t.Fatalf("window %v: appending to run %d changed run %d", window, i, i+1)
			}
		}
	}
}

// TestSplitRunsEmpty: a file with no accesses has no runs, and a
// detector that saw none has empty tables.
func TestSplitRunsEmpty(t *testing.T) {
	if runs := splitRuns(nil, nil, DefaultRunConfig(10)); runs != nil {
		t.Fatalf("runs of no accesses: %v", runs)
	}
	if runs := DetectRunsInFiles(map[core.FH][]Access{}, DefaultRunConfig(10)); runs != nil {
		t.Fatalf("runs of no files: %v", runs)
	}
	meta := &core.Op{T: 1, Replied: true, Proc: core.MustProc("getattr"), FH: core.InternFH("empty")}
	if tabs := detect(DefaultRunConfig(10), []*core.Op{meta}); tabs != (RunTables{}) {
		t.Fatalf("tables of a detector that saw no data access: %+v", tabs)
	}
}
