package repro

// Shape tests: assert that the simulated traces reproduce the paper's
// qualitative findings. These are the reproduction's acceptance tests —
// each checks a row or curve that nfsrepro prints (cmd/nfsrepro/testdata
// pins those outputs; README lists the tables and figures). Bands are
// deliberately loose (small-scale traces are noisy); the point is that
// every ordering and contrast the paper reports holds.

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// addAll feeds ops to a reducer in order and returns it, for the tests
// and benchmarks that look at one reducer's result directly.
func addAll[R interface{ Add(*core.Op) }](r R, ops []*core.Op) R {
	for _, op := range ops {
		r.Add(op)
	}
	return r
}

func TestShapeTable2Ratios(t *testing.T) {
	campus, eecs := traceOps(t)
	days := testScale().Days
	cs := addAll(analysis.NewSummary(days), campus)
	es := addAll(analysis.NewSummary(days), eecs)

	// CAMPUS reads dominate (paper 2.68 bytes / 3.01 ops).
	if r := cs.ReadWriteByteRatio(); r < 1.5 || r > 4.5 {
		t.Errorf("CAMPUS byte ratio %.2f, want ≈2.7", r)
	}
	// EECS writes dominate (paper 0.56 bytes / 0.69 ops).
	if r := es.ReadWriteByteRatio(); r > 1.3 {
		t.Errorf("EECS byte ratio %.2f, want <1", r)
	}
	if r := es.ReadWriteOpRatio(); r > 1.0 {
		t.Errorf("EECS op ratio %.2f, want <1", r)
	}
	// CAMPUS is data-dominated; EECS is metadata-dominated.
	if f := cs.MetadataFraction(); f > 0.35 {
		t.Errorf("CAMPUS metadata fraction %.2f, want small", f)
	}
	if f := es.MetadataFraction(); f < 0.5 {
		t.Errorf("EECS metadata fraction %.2f, want large", f)
	}
	// CAMPUS is the busier system per unit of data moved... and their
	// contrast must be present in both directions.
	if cs.ReadWriteByteRatio() < es.ReadWriteByteRatio() {
		t.Error("CAMPUS should be more read-heavy than EECS")
	}
}

func TestShapeBlockLifetimes(t *testing.T) {
	campus, eecs := traceOps(t)
	span := testScale().Days * workload.Day
	// Through the pipeline: its router resolves the removes.
	blockLife := func(ops []*core.Op) *analysis.BlockLifeResult {
		a := &pipeline.BlockLifeAnalyzer{Start: 0, Phase: span / 2, Margin: span / 2}
		pipeline.RunSlice(pipeline.Config{}, ops, a)
		return a.Result
	}
	cb, eb := blockLife(campus), blockLife(eecs)

	// EECS: most blocks die in under a second (paper >50%).
	if f := eb.Lifetimes.At(1.0); f < 0.35 {
		t.Errorf("EECS sub-second deaths %.2f, want >0.35", f)
	}
	// CAMPUS: blocks live far longer; few die sub-second.
	if f := cb.Lifetimes.At(1.0); f > 0.10 {
		t.Errorf("CAMPUS sub-second deaths %.2f, want ≈0", f)
	}
	if m := cb.Lifetimes.Median(); m < 10*60 {
		t.Errorf("CAMPUS median lifetime %.0fs, want ≥10min", m)
	}
	// CAMPUS deaths are almost all overwrites (paper 99.1%).
	if p := cb.DeathPct(analysis.DeathOverwrite); p < 85 {
		t.Errorf("CAMPUS overwrite deaths %.1f%%, want ≈99%%", p)
	}
	// EECS has a substantial deletion-death population (paper 51.8%).
	if p := eb.DeathPct(analysis.DeathDelete); p < 15 {
		t.Errorf("EECS delete deaths %.1f%%, want substantial", p)
	}
	// EECS has extension births; CAMPUS essentially none.
	if p := eb.BirthPct(analysis.BirthExtension); p < 3 {
		t.Errorf("EECS extension births %.1f%%, want >3%%", p)
	}
	if p := cb.BirthPct(analysis.BirthExtension); p > 1 {
		t.Errorf("CAMPUS extension births %.1f%%, want ≈0", p)
	}
}

func TestShapeRunMix(t *testing.T) {
	campus, eecs := traceOps(t)
	ctabs := addAll(analysis.NewRunDetector(analysis.DefaultRunConfig(10)), campus).Tables()
	etabs := addAll(analysis.NewRunDetector(analysis.DefaultRunConfig(5)), eecs).Tables()
	ct, et := ctabs.Tabulate(), etabs.Tabulate()

	// EECS is utterly write-run dominated (paper 82.3%).
	if et.WritePct < 65 {
		t.Errorf("EECS write runs %.1f%%, want >65%%", et.WritePct)
	}
	// CAMPUS reads and writes are comparable (53/44 in the paper).
	if ct.ReadPct < 30 || ct.ReadPct > 70 {
		t.Errorf("CAMPUS read runs %.1f%%", ct.ReadPct)
	}
	// Read-write runs are rare and overwhelmingly random.
	if ct.ReadWritePct > 10 {
		t.Errorf("CAMPUS r-w runs %.1f%%, want few", ct.ReadWritePct)
	}
	if ct.ReadWrite[analysis.PatternRandom] < 80 && ct.ReadWritePct > 0.5 {
		t.Errorf("CAMPUS r-w random %.1f%%, want ≈95%%", ct.ReadWrite[analysis.PatternRandom])
	}
	// Write runs are rarely random after processing (paper 9 / 2.1).
	if ct.Write[analysis.PatternRandom] > 20 {
		t.Errorf("CAMPUS random writes %.1f%%", ct.Write[analysis.PatternRandom])
	}
	if et.Write[analysis.PatternRandom] > 10 {
		t.Errorf("EECS random writes %.1f%%", et.Write[analysis.PatternRandom])
	}
}

func TestShapeFigure1Knee(t *testing.T) {
	campus, _ := traceOps(t)
	pts := addAll(analysis.NewReorderSweeper([]float64{0, 5, 10, 50}), campus).Points()
	if pts[0].SwappedPct != 0 {
		t.Fatalf("zero window swapped %.2f%%", pts[0].SwappedPct)
	}
	if pts[1].SwappedPct <= 0 {
		t.Fatal("no reordering detected at 5ms — the nfsiod model is off")
	}
	// Knee: most of the 50ms swap mass is already captured at 10ms.
	if pts[2].SwappedPct < 0.6*pts[3].SwappedPct {
		t.Errorf("no knee: 10ms=%.2f%% vs 50ms=%.2f%%",
			pts[2].SwappedPct, pts[3].SwappedPct)
	}
}

func TestShapeFigure2SizeMass(t *testing.T) {
	campus, _ := traceOps(t)
	tabs := addAll(analysis.NewRunDetector(analysis.DefaultRunConfig(10)), campus).Tables()
	pts := tabs.SizeProfile()
	var at1M float64
	for _, p := range pts {
		if p.SizeCeil == 1<<20 {
			at1M = p.TotalPct
		}
	}
	// CAMPUS bytes come overwhelmingly from files >1MB (mailboxes). At
	// this small scale the inbox-size draw is noisy (`nfsrepro -figure 2`
	// at its default scale shows 20% ≤1MB), so the band is loose: a
	// substantial share must come from >1MB files.
	if at1M > 70 {
		t.Errorf("%.1f%% of CAMPUS bytes from files ≤1MB, want well under", at1M)
	}
	// And the small-file population (locks, dot files, composers) must
	// contribute almost nothing.
	var at64k float64
	for _, p := range pts {
		if p.SizeCeil == 64*1024 {
			at64k = p.TotalPct
		}
	}
	if at64k > 10 {
		t.Errorf("%.1f%% of CAMPUS bytes from files ≤64KB, want ≈0", at64k)
	}
}

func TestShapeFigure5Sequentiality(t *testing.T) {
	campus, _ := traceOps(t)
	tabs := addAll(analysis.NewRunDetector(analysis.DefaultRunConfig(10)), campus).Tables()
	pts := tabs.SequentialityProfile()
	// Long CAMPUS reads are highly sequential.
	for _, p := range pts {
		if p.BytesCeil >= 1<<20 && p.ReadK10 >= 0 && p.ReadK10 < 0.9 {
			t.Errorf("long read metric %.2f at %d bytes, want ≈1.0", p.ReadK10, p.BytesCeil)
		}
	}
}

func TestShapeNamePrediction(t *testing.T) {
	campus, _ := traceOps(t)
	names := &pipeline.NamesAnalyzer{}
	pipeline.RunSlice(pipeline.Config{}, campus, names)
	rep := names.ReportAt(testScale().Days * workload.Day)
	// Locks dominate created-and-deleted files (paper 96%).
	if rep.LockFracOfDeleted < 0.8 {
		t.Errorf("locks %.2f of deleted files, want ≈0.96", rep.LockFracOfDeleted)
	}
	// Lock lifetimes are sub-second (paper 99.9% < 0.4s).
	locks := rep.PerCategory[analysis.CatLock]
	if f := locks.Lifetimes.At(0.4); f < 0.9 {
		t.Errorf("locks <0.4s: %.2f, want ≈1", f)
	}
	// Locks are zero-length.
	if locks.Sizes.Percentile(99) != 0 {
		t.Errorf("lock size p99 = %v, want 0", locks.Sizes.Percentile(99))
	}
	// Composer files are small (paper 98% ≤ 8K).
	comp := rep.PerCategory[analysis.CatComposer]
	if comp.Created > 0 {
		if f := comp.Sizes.At(8 * 1024); f < 0.8 {
			t.Errorf("composers ≤8K: %.2f, want ≈0.98", f)
		}
	}
	// The name predicts the size class extremely well.
	if rep.SizeAccuracy < 0.85 {
		t.Errorf("size prediction %.2f, want high", rep.SizeAccuracy)
	}
}

func TestShapeHierarchyCoverage(t *testing.T) {
	campus, _ := traceOps(t)
	if cov := addAll(analysis.NewHierarchyCoverage(600), campus).Coverage(); cov < 0.95 {
		t.Errorf("hierarchy coverage %.3f, want ≈1", cov)
	}
}

func TestShapeDiurnalVariance(t *testing.T) {
	campus, _ := traceOps(t)
	h := addAll(analysis.NewHourlyOpen(), campus).FixedTo(testScale().Days * workload.Day)
	all := h.VarianceTable(false)
	peak := h.VarianceTable(true)
	for i := range all {
		if all[i].Name != "total_ops" {
			continue
		}
		if peak[i].Mean <= all[i].Mean {
			t.Error("peak hours not busier than average")
		}
		if peak[i].RelStddev >= all[i].RelStddev {
			t.Errorf("peak variance (%.2f) not below all-hours (%.2f)",
				peak[i].RelStddev, all[i].RelStddev)
		}
	}
}

func TestShapeLossExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation")
	}
	s := SmallScale()
	s.Days = 0.5
	lossy, port := GenerateCampusLossy(s, 100e3)
	if port.LossRate() <= 0 {
		t.Skip("no loss induced at this scale")
	}
	if lossy.Join.LossEstimate() <= 0 {
		t.Error("loss occurred but the estimate is zero")
	}
	clean := GenerateCampus(s)
	if lossy.Stats.Ops >= clean.Stats.Ops {
		t.Error("lossy trace recovered as many ops as the clean one")
	}
}
