package analysis

import (
	"testing"

	"repro/internal/core"
)

func TestSummarize(t *testing.T) {
	ops := []*core.Op{
		{Proc: core.MustProc("read"), Replied: true, RCount: 8192},
		{Proc: core.MustProc("read"), Replied: true, RCount: 8192},
		{Proc: core.MustProc("read"), Replied: true, RCount: 8192},
		{Proc: core.MustProc("write"), Replied: true, RCount: 4096},
		{Proc: core.MustProc("getattr"), Replied: true},
		{Proc: core.MustProc("lookup"), Replied: true},
	}
	s := addAll(NewSummary(2), ops)
	if s.TotalOps != 6 || s.ReadOps != 3 || s.WriteOps != 1 || s.MetadataOps != 2 {
		t.Fatalf("summary: %+v", s)
	}
	if s.BytesRead != 3*8192 || s.BytesWritten != 4096 {
		t.Fatalf("bytes: %+v", s)
	}
	if s.ReadWriteByteRatio() != 6 || s.ReadWriteOpRatio() != 3 {
		t.Fatalf("ratios: %v %v", s.ReadWriteByteRatio(), s.ReadWriteOpRatio())
	}
	if s.Daily(6) != 3 {
		t.Fatalf("daily: %v", s.Daily(6))
	}
	if s.MetadataFraction() != 2.0/6 {
		t.Fatalf("meta frac: %v", s.MetadataFraction())
	}
	if s.ProcCounts[core.ProcRead] != 3 {
		t.Fatalf("proc counts: %v", s.ProcCounts)
	}
	if s.String() == "" {
		t.Fatal("empty string render")
	}
}

func TestHourlyAndVariance(t *testing.T) {
	var ops []*core.Op
	// Weekdays 1–5: heavy during 9-18, light at night; reads 3× writes
	// during the day. Weekend left idle.
	day := 86400.0
	for d := 1; d <= 5; d++ {
		for h := 0; h < 24; h++ {
			n := 2
			if h >= 9 && h < 18 {
				n = 55 + (h*7+d*3)%10 // busy, with mild hour-to-hour jitter
			}
			for i := 0; i < n; i++ {
				tt := float64(d)*day + float64(h)*3600 + float64(i)*30
				ops = append(ops, &core.Op{T: tt, Proc: core.MustProc("read"), Replied: true, RCount: 8192})
				if i%3 == 0 {
					ops = append(ops, &core.Op{T: tt + 1, Proc: core.MustProc("write"), Replied: true, RCount: 8192})
				}
			}
		}
	}
	h := addAll(NewHourlyOpen(), ops).FixedTo(7 * day)
	if h.Ops.NumBuckets() != 168 {
		t.Fatalf("buckets %d", h.Ops.NumBuckets())
	}
	// Peak-only variance must be far below all-hours variance.
	all := h.VarianceTable(false)
	peak := h.VarianceTable(true)
	var allOps, peakOps VarianceRow
	for i := range all {
		if all[i].Name == "total_ops" {
			allOps, peakOps = all[i], peak[i]
		}
	}
	if peakOps.Mean <= allOps.Mean {
		t.Fatalf("peak mean %v not above all-hours mean %v", peakOps.Mean, allOps.Mean)
	}
	if allOps.RelStddev < 2*peakOps.RelStddev {
		t.Fatalf("variance reduction too small: all=%.2f peak=%.2f",
			allOps.RelStddev, peakOps.RelStddev)
	}
	red := h.VarianceReduction()
	if red["total_ops"] < 2 {
		t.Fatalf("reduction map: %v", red)
	}
	// The ratio series has the right shape: ~3 during peak.
	ratios := h.RWRatios()
	if r := ratios[24+10]; r < 2 || r > 4 {
		t.Fatalf("10am ratio %v", r)
	}
}

func TestCategorize(t *testing.T) {
	cases := map[string]NameCategory{
		"inbox.lock":       CatLock,
		"lock":             CatLock,
		".pinerc":          CatDot,
		".cshrc":           CatDot,
		"pico.000123":      CatComposer,
		"Applet_7_Extern":  CatComposer,
		"#draft":           CatComposer,
		"inbox":            CatMailbox,
		"saved-messages":   CatMailbox,
		"mod01.c":          CatSource,
		"paper.tex":        CatSource,
		"paper.tex~":       CatTemp,
		"mod01.o":          CatTemp,
		"run00001.out":     CatTemp,
		"cache0A1B2C3D.gz": CatOther,
		"":                 CatOther,
		// Markers categorize a name even when they are all of it, and a
		// name only containing "lock" is no lock file.
		"#":        CatComposer,
		"~":        CatTemp,
		"Applet_":  CatComposer,
		"pico.":    CatComposer,
		"lockfile": CatOther,
	}
	for name, want := range cases {
		if got := Categorize(name); got != want {
			t.Errorf("Categorize(%q) = %v, want %v", name, got, want)
		}
	}
}

// BenchmarkCategorize classifies, in turn, one name of each kind that
// the CAMPUS and EECS generators create.
func BenchmarkCategorize(b *testing.B) {
	names := []string{
		"Applet_17_Extern", "mod03.c", "mod04.h", "mod03.o", "run00042.out",
		"stage00042.out", "a.out", "paper.tex", "paper.tex~", "notes.txt",
		"inbox.lock", "inbox", "pico.000123", ".pinerc", "cache9E3779B1.gz",
		"experiment.log", "experiment.log.0", "trace3.dat",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		categorySink = Categorize(names[i%len(names)])
	}
}

var categorySink NameCategory

func TestAnalyzeNames(t *testing.T) {
	// Removes carry the Target the pipeline's router resolves.
	var ops []*core.Op
	// 10 locks: created and deleted within 0.2s, zero length.
	for i := 0; i < 10; i++ {
		t0 := float64(i) * 10
		fh := core.InternFH("lock" + string(rune('a'+i)))
		ops = append(ops,
			&core.Op{T: t0, Replied: true, Proc: core.MustProc("create"), FH: core.InternFH("dir"),
				Name: "inbox.lock", NewFH: fh, Size: 0},
			&core.Op{T: t0 + 0.2, Replied: true, Proc: core.MustProc("remove"), FH: core.InternFH("dir"), Name: "inbox.lock", Target: fh},
		)
	}
	// One composer file, 4 KB, deleted after 30s.
	ops = append(ops,
		&core.Op{T: 200, Replied: true, Proc: core.MustProc("create"), FH: core.InternFH("dir"), Name: "pico.000001", NewFH: core.InternFH("comp"), Size: 0},
		&core.Op{T: 201, Replied: true, Proc: core.MustProc("write"), FH: core.InternFH("comp"), Offset: 0, Count: 4096, RCount: 4096, Size: 4096},
		&core.Op{T: 230, Replied: true, Proc: core.MustProc("remove"), FH: core.InternFH("dir"), Name: "pico.000001", Target: core.InternFH("comp")},
	)
	// A mailbox that lives on.
	ops = append(ops,
		&core.Op{T: 300, Replied: true, Proc: core.MustProc("create"), FH: core.InternFH("dir"), Name: "inbox", NewFH: core.InternFH("mbox"), Size: 0},
		&core.Op{T: 301, Replied: true, Proc: core.MustProc("write"), FH: core.InternFH("mbox"), Offset: 0, Count: 8192, RCount: 8192, Size: 3 << 20},
	)
	rep := addAll(NewNamesStream(), ops).Report(1000)

	locks := rep.PerCategory[CatLock]
	if locks.Created != 10 || locks.Deleted != 10 {
		t.Fatalf("locks: %+v", locks)
	}
	if m := locks.Lifetimes.Median(); m < 0.19 || m > 0.21 {
		t.Fatalf("lock lifetime median %v", m)
	}
	if locks.Sizes.Percentile(99) != 0 {
		t.Fatalf("locks not zero length: %v", locks.Sizes.Percentile(99))
	}
	if rep.CreatedAndDeleted != 11 {
		t.Fatalf("created+deleted %d", rep.CreatedAndDeleted)
	}
	if rep.LockFracOfDeleted < 0.9 {
		t.Fatalf("lock fraction %v, want ~10/11", rep.LockFracOfDeleted)
	}
	comp := rep.PerCategory[CatComposer]
	if comp.Created != 1 || comp.Deleted != 1 {
		t.Fatalf("composer: %+v", comp)
	}
	// Categories predict classes perfectly in this toy set.
	if rep.SizeAccuracy < 0.99 || rep.LifeAccuracy < 0.99 {
		t.Fatalf("accuracy: size=%v life=%v", rep.SizeAccuracy, rep.LifeAccuracy)
	}
}

func TestHierarchyCoverageGrows(t *testing.T) {
	// Simulate lookups introducing handles, then repeated access: the
	// post-warmup coverage should be near 1.
	var ops []*core.Op
	for i := 0; i < 50; i++ {
		fh := "file" + string(rune('A'+i%26)) + string(rune('a'+i/26))
		ops = append(ops, &core.Op{T: float64(i), Proc: core.MustProc("lookup"),
			FH: core.InternFH("root"), Name: "f" + fh, NewFH: core.InternFH(fh), Replied: true})
	}
	for i := 0; i < 500; i++ {
		fh := "file" + string(rune('A'+i%26)) + string(rune('a'+(i/26)%2))
		ops = append(ops, &core.Op{T: 50 + float64(i), Proc: core.MustProc("read"), FH: core.InternFH(fh), Replied: true})
	}
	cov := addAll(NewHierarchyCoverage(50), ops).Coverage()
	if cov < 0.99 {
		t.Fatalf("coverage %v", cov)
	}
}
