package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Property-based tests on the analysis invariants.

// randomOps builds a random but well-formed data-op stream.
func randomOps(seed int64, n int) []*core.Op {
	rng := rand.New(rand.NewSource(seed))
	files := []string{"a", "b", "c", "d"}
	var ops []*core.Op
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Float64() * 5
		proc := core.ProcRead
		if rng.Intn(3) == 0 {
			proc = core.ProcWrite
		}
		count := uint32(1024 + rng.Intn(16384))
		off := uint64(rng.Intn(512)) * 8192
		ops = append(ops, &core.Op{
			T: t, Replied: true, Proc: proc, FH: core.InternFH(files[rng.Intn(len(files))]),
			Offset: off, Count: count, RCount: count,
			Size: off + uint64(count) + uint64(rng.Intn(1<<20)),
			EOF:  rng.Intn(20) == 0,
		})
	}
	return ops
}

// TestRunsPartitionAccesses: every data access lands in exactly one run.
func TestRunsPartitionAccesses(t *testing.T) {
	f := func(seed int64) bool {
		ops := randomOps(seed, 300)
		runs := addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
		var total int
		var bytes uint64
		for _, r := range runs {
			total += len(r.Accesses)
			for _, a := range r.Accesses {
				bytes += uint64(a.Count)
			}
			if r.Bytes == 0 && len(r.Accesses) > 0 {
				hasBytes := false
				for _, a := range r.Accesses {
					if a.Count > 0 {
						hasBytes = true
					}
				}
				if hasBytes {
					return false
				}
			}
		}
		var want int
		var wantBytes uint64
		for _, op := range ops {
			if op.IsRead() || op.IsWrite() {
				want++
				wantBytes += op.Bytes()
			}
		}
		return total == want && bytes == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMetricBounds: sequentiality metrics stay in [0,1] and the strict
// metric never exceeds the jump-tolerant one.
func TestMetricBounds(t *testing.T) {
	f := func(seed int64) bool {
		ops := randomOps(seed, 200)
		runs := addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs()
		for _, r := range runs {
			if r.Metric < 0 || r.Metric > 1 || r.MetricK1 < 0 || r.MetricK1 > 1 {
				return false
			}
			if r.MetricK1 > r.Metric+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTabulatePercentagesSum: kind percentages sum to 100, and pattern
// percentages within each populated kind sum to 100.
func TestTabulatePercentagesSum(t *testing.T) {
	f := func(seed int64) bool {
		ops := randomOps(seed, 250)
		tab := Tabulate(addAll(NewRunDetector(DefaultRunConfig(10)), ops).Runs())
		if tab.TotalRuns == 0 {
			return true
		}
		sum := tab.ReadPct + tab.WritePct + tab.ReadWritePct
		if sum < 99.9 || sum > 100.1 {
			return false
		}
		for _, pats := range [][3]float64{tab.Read, tab.Write, tab.ReadWrite} {
			s := pats[0] + pats[1] + pats[2]
			if s != 0 && (s < 99.9 || s > 100.1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSortWindowPreservesMultiset: the reorder sort permutes accesses,
// never losing or duplicating them.
func TestSortWindowPreservesMultiset(t *testing.T) {
	f := func(seed int64, wexp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var accs []Access
		t := 0.0
		for i := 0; i < 100; i++ {
			t += rng.Float64() * 0.01
			accs = append(accs, Access{T: t, Offset: uint64(rng.Intn(100)) * 8192, Count: 8192})
		}
		before := map[uint64]int{}
		for _, a := range accs {
			before[a.Offset]++
		}
		SortWindow(accs, float64(wexp%50)/1000)
		after := map[uint64]int{}
		for _, a := range accs {
			after[a.Offset]++
		}
		if len(before) != len(after) {
			return false
		}
		for k, v := range before {
			if after[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBlockLifeConservation: deaths never exceed births, and cause
// counts sum to the totals.
func TestBlockLifeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ops []*core.Op
		tm := 0.0
		size := map[string]uint64{"x": 0, "y": 0}
		for i := 0; i < 200; i++ {
			tm += rng.Float64() * 3
			fh := "x"
			if rng.Intn(2) == 0 {
				fh = "y"
			}
			switch rng.Intn(3) {
			case 0, 1: // write
				off := uint64(rng.Intn(64)) * 8192
				count := uint32(8192)
				pre := size[fh]
				if off+uint64(count) > size[fh] {
					size[fh] = off + uint64(count)
				}
				ops = append(ops, &core.Op{T: tm, Replied: true, Proc: core.MustProc("write"),
					FH: core.InternFH(fh), Offset: off, Count: count, RCount: count,
					PreSize: pre, HasPre: true, Size: size[fh]})
			case 2: // truncate
				newSize := uint64(rng.Intn(32)) * 8192
				pre := size[fh]
				size[fh] = newSize
				ops = append(ops, &core.Op{T: tm, Replied: true, Proc: core.MustProc("setattr"),
					FH: core.InternFH(fh), SetSize: newSize, HasSet: true,
					PreSize: pre, HasPre: true, Size: newSize})
			}
		}
		res := addAll(NewBlockLifeStream(0, tm/2, tm/2+1), ops).Result()
		if res.Deaths > res.Births {
			return false
		}
		var bc, dc int64
		for _, v := range res.BirthCause {
			bc += v
		}
		for _, v := range res.DeathCause {
			dc += v
		}
		if bc != res.Births || dc != res.Deaths {
			return false
		}
		// Surplus + counted deaths + margin-discarded deaths == births;
		// we can only check the inequality without the discard count.
		return res.EndSurplus <= res.Births
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestHourlyConservation: bucketed op counts sum to the input size.
func TestHourlyConservation(t *testing.T) {
	f := func(seed int64) bool {
		ops := randomOps(seed, 400)
		span := ops[len(ops)-1].T + 1
		h := addAll(NewHourly(span), ops)
		var sum float64
		for i := 0; i < h.Ops.NumBuckets(); i++ {
			sum += h.Ops.Bucket(i)
		}
		return int(sum) == len(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
