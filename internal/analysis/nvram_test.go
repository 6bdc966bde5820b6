package analysis

import (
	"testing"

	"repro/internal/core"
)

func TestWriteAbsorption(t *testing.T) {
	// Three blocks: one dies in 1s, one in 100s, one never.
	ops := []*core.Op{
		wr(1, "f", 0, 8192, 0, 8192),
		wr(2, "f", 0, 8192, 8192, 8192), // block 0 rebirth; first died at 1s
		wr(3, "f", 8192, 8192, 8192, 16384),
		wr(103, "f", 8192, 8192, 16384, 16384),  // block 1 died at 100s
		wr(104, "f", 16384, 8192, 16384, 24576), // block 2 immortal
	}
	pts := WriteAbsorption(addAll(NewBlockLifeStream(0, 200, 1000), ops).Result(), []float64{10, 1000})
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// 5 births; 1 died within 10s → 20%.
	if pts[0].AbsorbedPct < 19 || pts[0].AbsorbedPct > 21 {
		t.Fatalf("10s absorption %.1f%%, want 20%%", pts[0].AbsorbedPct)
	}
	// 2 died within 1000s → 40%.
	if pts[1].AbsorbedPct < 39 || pts[1].AbsorbedPct > 41 {
		t.Fatalf("1000s absorption %.1f%%, want 40%%", pts[1].AbsorbedPct)
	}
	if pts[0].AbsorbedPct > pts[1].AbsorbedPct {
		t.Fatal("absorption not monotone in delay")
	}
}

func TestWriteAbsorptionEmpty(t *testing.T) {
	pts := WriteAbsorption(NewBlockLifeStream(0, 10, 1).Result(), []float64{1})
	if len(pts) != 1 || pts[0].AbsorbedPct != 0 {
		t.Fatalf("empty absorption: %+v", pts)
	}
}

func TestQuietPeriods(t *testing.T) {
	// Build a synthetic week: busy 9-18 weekdays, dead nights.
	var ops []*core.Op
	day := 86400.0
	for d := 0; d < 7; d++ {
		for h := 9; h < 18; h++ {
			if d == 0 || d == 6 {
				continue // weekend: quiet all day
			}
			for i := 0; i < 100; i++ {
				ops = append(ops, &core.Op{T: float64(d)*day + float64(h)*3600 + float64(i)})
			}
		}
	}
	h := addAll(NewHourly(7*day), ops)
	ps := QuietPeriods(h, 0.1, 6)
	if len(ps) == 0 {
		t.Fatal("no quiet periods in a workload with dead nights")
	}
	// Nights + weekends: the majority of the week is quiet.
	if QuietHoursTotal(ps) < 80 {
		t.Fatalf("only %d quiet hours", QuietHoursTotal(ps))
	}
	for _, p := range ps {
		if p.Hours() < 6 {
			t.Fatalf("period shorter than minimum: %+v", p)
		}
		if p.MeanOps > 10 {
			t.Fatalf("quiet period not quiet: %+v", p)
		}
	}
}

func TestQuietPeriodsNoneWhenFlat(t *testing.T) {
	var ops []*core.Op
	for h := 0; h < 168; h++ {
		for i := 0; i < 50; i++ {
			ops = append(ops, &core.Op{T: float64(h)*3600 + float64(i)})
		}
	}
	h := addAll(NewHourly(168*3600), ops)
	if ps := QuietPeriods(h, 0.5, 3); len(ps) != 0 {
		t.Fatalf("flat load yielded quiet periods: %+v", ps)
	}
}
