package repro

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/client"
	"repro/internal/netem"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/workload"
)

// This file regenerates every table and figure in the paper's
// evaluation. Each function returns a plain-text report whose rows
// mirror the paper's presentation; the "paper:" annotations carry the
// published values so a reader can compare shape directly. Absolute
// magnitudes differ by the simulation scale (documented in
// EXPERIMENTS.md); ratios, mixes, distributions, and orderings are the
// reproduction targets.
//
// Every analysis that reads a trace does so through (*Trace).analyze,
// that is, the internal/pipeline engine: one streaming pass per trace
// per experiment, sharded across Trace.Pipeline workers, with merges
// that make the rendered output byte-identical at any worker count.
// (ExpNfsiod and ExpReadahead simulate and read no trace.)

// Table1 contrasts the two workloads qualitatively, computing each
// claim from the traces.
func Table1(campus, eecs *Trace) string {
	// One sharded pass over each trace computes every Table 1 claim:
	// the activity summary, the peak-hour instance mix (Monday
	// 10:00–11:00), the mailbox byte share, and the block lifetimes
	// (Monday 9am, 24h+24h, where the window allows).
	cSum := &pipeline.SummaryAnalyzer{Days: campus.Days}
	peak := &pipeline.PeakHourAnalyzer{
		From: workload.Day + 10*workload.Hour,
		To:   workload.Day + 11*workload.Hour,
	}
	mail := &pipeline.MailboxAnalyzer{}
	cLife := blockLifeAnalyzer(campus)
	campus.analyze(cSum, peak, mail, cLife)

	eSum := &pipeline.SummaryAnalyzer{Days: eecs.Days}
	eLife := blockLifeAnalyzer(eecs)
	eecs.analyze(eSum, eLife)

	cs, es := cSum.Result, eSum.Result
	lockFrac, inboxFrac := peak.Result.LockFrac(), peak.Result.MailboxFrac()
	mailboxBytes, totalBytes := mail.MailboxBytes, mail.TotalBytes
	cb, eb := cLife.Result, eLife.Result

	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Characteristics of CAMPUS and EECS\n")
	fmt.Fprintf(&b, "%-46s %-12s %-12s %s\n", "metric", "CAMPUS", "EECS", "paper")
	row := func(metric string, c, e string, paper string) {
		fmt.Fprintf(&b, "%-46s %-12s %-12s %s\n", metric, c, e, paper)
	}
	row("data calls (% of ops)",
		fmt.Sprintf("%.0f%%", 100*(1-cs.MetadataFraction())),
		fmt.Sprintf("%.0f%%", 100*(1-es.MetadataFraction())),
		"CAMPUS mostly data; EECS mostly metadata")
	row("read/write byte ratio",
		fmt.Sprintf("%.2f", cs.ReadWriteByteRatio()),
		fmt.Sprintf("%.2f", es.ReadWriteByteRatio()),
		"CAMPUS 3.0 (reads win); EECS writes win 1.4x")
	row("lock files (% of file instances, peak hr)",
		fmt.Sprintf("%.0f%%", 100*lockFrac), "-", "CAMPUS ~50%")
	row("mailboxes (% of file instances, peak hr)",
		fmt.Sprintf("%.0f%%", 100*inboxFrac), "-", "CAMPUS ~20%")
	row("mailbox share of data bytes",
		fmt.Sprintf("%.0f%%", 100*float64(mailboxBytes)/float64(totalBytes)), "-",
		"95+% of data read and written")
	row("median block lifetime",
		fmtDuration(cb.Lifetimes.Median()), fmtDuration(eb.Lifetimes.Median()),
		"CAMPUS ≥10 min; EECS <1 s")
	row("block deaths by overwrite",
		fmt.Sprintf("%.1f%%", cb.DeathPct(analysis.DeathOverwrite)),
		fmt.Sprintf("%.1f%%", eb.DeathPct(analysis.DeathOverwrite)),
		"CAMPUS ~all; EECS a mix with deletes")
	return b.String()
}

func fmtDuration(sec float64) string {
	switch {
	case sec < 1:
		return fmt.Sprintf("%.2fs", sec)
	case sec < 120:
		return fmt.Sprintf("%.0fs", sec)
	case sec < 7200:
		return fmt.Sprintf("%.0fmin", sec/60)
	default:
		return fmt.Sprintf("%.1fh", sec/3600)
	}
}

// blockLifeAnalyzer builds the block-lifetime reducer over the trace's
// weekday window: Monday 9am with a 24h phase and 24h margin when the
// trace is long enough, otherwise the first half of the window.
func blockLifeAnalyzer(tr *Trace) *pipeline.BlockLifeAnalyzer {
	if tr.Days >= 3 {
		return &pipeline.BlockLifeAnalyzer{
			Start: workload.Day + 9*workload.Hour,
			Phase: workload.Day, Margin: workload.Day,
		}
	}
	span := tr.Days * workload.Day
	return &pipeline.BlockLifeAnalyzer{Start: 0, Phase: span / 2, Margin: span / 2}
}

// Table2 reports average daily activity for both systems.
func Table2(campus, eecs *Trace) string {
	cSum := &pipeline.SummaryAnalyzer{Days: campus.Days}
	campus.analyze(cSum)
	eSum := &pipeline.SummaryAnalyzer{Days: eecs.Days}
	eecs.analyze(eSum)
	cs, es := cSum.Result, eSum.Result
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Average daily activity (simulated scale)\n")
	fmt.Fprintf(&b, "%-26s %14s %14s\n", "", "CAMPUS", "EECS")
	row := func(name string, c, e float64, format string) {
		fmt.Fprintf(&b, "%-26s %14s %14s\n", name,
			fmt.Sprintf(format, c), fmt.Sprintf(format, e))
	}
	row("Total ops (1000s/day)", cs.Daily(float64(cs.TotalOps))/1e3, es.Daily(float64(es.TotalOps))/1e3, "%.1f")
	row("Data read (MB/day)", cs.Daily(float64(cs.BytesRead))/(1<<20), es.Daily(float64(es.BytesRead))/(1<<20), "%.1f")
	row("Read ops (1000s/day)", cs.Daily(float64(cs.ReadOps))/1e3, es.Daily(float64(es.ReadOps))/1e3, "%.1f")
	row("Data written (MB/day)", cs.Daily(float64(cs.BytesWritten))/(1<<20), es.Daily(float64(es.BytesWritten))/(1<<20), "%.1f")
	row("Write ops (1000s/day)", cs.Daily(float64(cs.WriteOps))/1e3, es.Daily(float64(es.WriteOps))/1e3, "%.1f")
	row("Read/Write bytes ratio", cs.ReadWriteByteRatio(), es.ReadWriteByteRatio(), "%.2f")
	row("Read/Write ops ratio", cs.ReadWriteOpRatio(), es.ReadWriteOpRatio(), "%.2f")
	row("Metadata fraction", cs.MetadataFraction(), es.MetadataFraction(), "%.2f")
	fmt.Fprintf(&b, "paper (full scale): CAMPUS 26.7M ops/day, 119.6GB read, 44.6GB written, ratios 2.68/3.01;\n")
	fmt.Fprintf(&b, "                    EECS 4.44M ops/day, 5.1GB read, 9.1GB written, ratios 0.56/0.69\n")
	return b.String()
}

// Table3 reports the run taxonomy, raw and processed, for both systems.
func Table3(campus, eecs *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: File access patterns (%% of runs; E/S/R within kind)\n")
	fmt.Fprintf(&b, "%-22s %28s %28s\n", "", "CAMPUS", "EECS")
	fmt.Fprintf(&b, "%-22s %9s %9s %9s %9s %9s %9s\n", "", "raw", "processed", "paper",
		"raw", "processed", "paper")

	// Raw and processed detection share one pass per trace.
	rawCA := &pipeline.RunsAnalyzer{Config: analysis.RunConfig{
		ReorderWindow: campus.ReorderWindowMS / 1000, IdleGap: 30, JumpBlocks: 1}}
	procCA := &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(campus.ReorderWindowMS)}
	campus.analyze(rawCA, procCA)
	rawEA := &pipeline.RunsAnalyzer{Config: analysis.RunConfig{
		ReorderWindow: eecs.ReorderWindowMS / 1000, IdleGap: 30, JumpBlocks: 1}}
	procEA := &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(eecs.ReorderWindowMS)}
	eecs.analyze(rawEA, procEA)
	rawC, procC := rawCA.Table(), procCA.Table()
	rawE, procE := rawEA.Table(), procEA.Table()

	type rowSpec struct {
		name   string
		value  func(t analysis.RunTable) float64
		paperC string
		paperE string
	}
	rows := []rowSpec{
		{"Reads (% total)", func(t analysis.RunTable) float64 { return t.ReadPct }, "53.1", "16.5"},
		{"  Entire (% read)", func(t analysis.RunTable) float64 { return t.Read[analysis.PatternEntire] }, "57.6", "57.2"},
		{"  Sequential (% read)", func(t analysis.RunTable) float64 { return t.Read[analysis.PatternSequential] }, "33.9", "39.0"},
		{"  Random (% read)", func(t analysis.RunTable) float64 { return t.Read[analysis.PatternRandom] }, "8.6", "3.8"},
		{"Writes (% total)", func(t analysis.RunTable) float64 { return t.WritePct }, "43.9", "82.3"},
		{"  Entire (% write)", func(t analysis.RunTable) float64 { return t.Write[analysis.PatternEntire] }, "37.8", "19.6"},
		{"  Sequential (% write)", func(t analysis.RunTable) float64 { return t.Write[analysis.PatternSequential] }, "53.2", "78.3"},
		{"  Random (% write)", func(t analysis.RunTable) float64 { return t.Write[analysis.PatternRandom] }, "9.0", "2.1"},
		{"Read-Write (% total)", func(t analysis.RunTable) float64 { return t.ReadWritePct }, "3.0", "1.1"},
		{"  Random (% r-w)", func(t analysis.RunTable) float64 { return t.ReadWrite[analysis.PatternRandom] }, "94.3", "86.8"},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %9.1f %9.1f %9s %9.1f %9.1f %9s\n", r.name,
			r.value(rawC), r.value(procC), r.paperC,
			r.value(rawE), r.value(procE), r.paperE)
	}
	fmt.Fprintf(&b, "(runs: CAMPUS %d, EECS %d)\n", procC.TotalRuns, procE.TotalRuns)
	return b.String()
}

// Table4 reports daily block births and deaths by cause.
func Table4(campus, eecs *Trace) string {
	cLife := blockLifeAnalyzer(campus)
	campus.analyze(cLife)
	eLife := blockLifeAnalyzer(eecs)
	eecs.analyze(eLife)
	cb, eb := cLife.Result, eLife.Result
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Daily block life statistics (24h phase + 24h margin)\n")
	fmt.Fprintf(&b, "%-26s %12s %12s %26s\n", "", "CAMPUS", "EECS", "paper (C / E)")
	row := func(name string, c, e float64, paper string) {
		fmt.Fprintf(&b, "%-26s %11.1f%% %11.1f%% %26s\n", name, c, e, paper)
	}
	fmt.Fprintf(&b, "%-26s %12d %12d %26s\n", "Total births", cb.Births, eb.Births, "28.4M / 9.8M (full scale)")
	row("  Due to writes", cb.BirthPct(analysis.BirthWrite), eb.BirthPct(analysis.BirthWrite), "99.9 / 75.5")
	row("  Due to extension", cb.BirthPct(analysis.BirthExtension), eb.BirthPct(analysis.BirthExtension), "<0.1 / 24.5")
	fmt.Fprintf(&b, "%-26s %12d %12d %26s\n", "Total deaths", cb.Deaths, eb.Deaths, "27.5M / 9.2M (full scale)")
	row("  Due to overwrites", cb.DeathPct(analysis.DeathOverwrite), eb.DeathPct(analysis.DeathOverwrite), "99.1 / 42.4")
	row("  Due to truncates", cb.DeathPct(analysis.DeathTruncate), eb.DeathPct(analysis.DeathTruncate), "0.6 / 5.8")
	row("  Due to file deletion", cb.DeathPct(analysis.DeathDelete), eb.DeathPct(analysis.DeathDelete), "0.3 / 51.8")
	row("End surplus", cb.EndSurplusPct(), eb.EndSurplusPct(), "2.1-5.9 / 3.5-9.5")
	return b.String()
}

// Table5 reports hourly means and relative stddevs, all hours vs peak.
func Table5(campus, eecs *Trace) string {
	cHourly := &pipeline.HourlyAnalyzer{Span: campus.Days * workload.Day}
	campus.analyze(cHourly)
	eHourly := &pipeline.HourlyAnalyzer{Span: eecs.Days * workload.Day}
	eecs.analyze(eHourly)
	ch, eh := cHourly.Result, eHourly.Result
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Average hourly activity; stddev as %% of mean in parens\n")
	for _, peak := range []bool{false, true} {
		label := "All Hours"
		if peak {
			label = "Peak Hours Only (Mon-Fri 9am-6pm)"
		}
		fmt.Fprintf(&b, "%s\n%-24s %22s %22s\n", label, "", "CAMPUS", "EECS")
		cRows := ch.VarianceTable(peak)
		eRows := eh.VarianceTable(peak)
		for i := range cRows {
			fmt.Fprintf(&b, "%-24s %12.0f (%4.0f%%) %12.0f (%4.0f%%)\n",
				cRows[i].Name, cRows[i].Mean, 100*cRows[i].RelStddev,
				eRows[i].Mean, 100*eRows[i].RelStddev)
		}
	}
	red := ch.VarianceReduction()
	fmt.Fprintf(&b, "CAMPUS variance reduction (all/peak): total_ops %.1fx, read_ops %.1fx, write_ops %.1fx\n",
		red["total_ops"], red["read_ops"], red["write_ops"])
	fmt.Fprintf(&b, "paper: CAMPUS stddev%% drops >=4x during peak hours for every statistic\n")
	return b.String()
}

// Figure1 sweeps the reorder window size against swapped accesses.
func Figure1(campus, eecs *Trace) string {
	// The paper uses Wednesday 9am-12pm.
	from := 3*workload.Day + 9*workload.Hour
	to := from + 3*workload.Hour
	windows := []float64{0, 1, 2, 3, 5, 8, 10, 15, 20, 30, 40, 50}
	cSweep := &pipeline.ReorderSweepAnalyzer{WindowsMS: windows}
	campus.window(from, to).analyze(cSweep)
	eSweep := &pipeline.ReorderSweepAnalyzer{WindowsMS: windows}
	eecs.window(from, to).analyze(eSweep)
	cPts, ePts := cSweep.Result, eSweep.Result
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: %% of accesses swapped vs reorder window (Wed 9am-12pm)\n")
	fmt.Fprintf(&b, "%10s %12s %12s\n", "window(ms)", "CAMPUS", "EECS")
	for i := range windows {
		fmt.Fprintf(&b, "%10.0f %11.2f%% %11.2f%%\n",
			windows[i], cPts[i].SwappedPct, ePts[i].SwappedPct)
	}
	fmt.Fprintf(&b, "paper: knee at single-digit ms; chosen windows 10ms (CAMPUS), 5ms (EECS)\n")
	return b.String()
}

// Figure2 reports bytes accessed by file size and run pattern.
func Figure2(campus, eecs *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: cumulative %% of bytes accessed vs file size\n")
	for _, tr := range []*Trace{campus, eecs} {
		ra := &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(tr.ReorderWindowMS)}
		tr.analyze(ra)
		pts := analysis.SizeProfile(ra.Result)
		fmt.Fprintf(&b, "%s\n%12s %8s %8s %8s %8s\n", tr.Name,
			"file size", "total", "entire", "seq", "random")
		for _, p := range pts {
			if p.TotalPct < 0.01 && p.SizeCeil < 4096 {
				continue
			}
			fmt.Fprintf(&b, "%12s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				fmtSize(p.SizeCeil), p.TotalPct, p.EntirePct, p.SequentialPct, p.RandomPct)
		}
	}
	fmt.Fprintf(&b, "paper: CAMPUS bytes come overwhelmingly from files >1MB (mailboxes);\n")
	fmt.Fprintf(&b, "       EECS bytes mostly from files <1MB, ~60%% accessed randomly\n")
	return b.String()
}

func fmtSize(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Figure3 reports the cumulative block lifetime distribution.
func Figure3(campus, eecs *Trace) string {
	cLife := blockLifeAnalyzer(campus)
	campus.analyze(cLife)
	eLife := blockLifeAnalyzer(eecs)
	eecs.analyze(eLife)
	cb, eb := cLife.Result, eLife.Result
	marks := []struct {
		label string
		sec   float64
	}{
		{"1 sec", 1}, {"30 sec", 30}, {"5 min", 300},
		{"15 min", 900}, {"1 hour", 3600}, {"6 hours", 21600}, {"1 day", 86400},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: cumulative %% of blocks dead by lifetime\n")
	fmt.Fprintf(&b, "%10s %10s %10s\n", "lifetime", "CAMPUS", "EECS")
	for _, m := range marks {
		fmt.Fprintf(&b, "%10s %9.1f%% %9.1f%%\n", m.label,
			100*cb.Lifetimes.At(m.sec), 100*eb.Lifetimes.At(m.sec))
	}
	fmt.Fprintf(&b, "medians: CAMPUS %s, EECS %s\n",
		fmtDuration(cb.Lifetimes.Median()), fmtDuration(eb.Lifetimes.Median()))
	fmt.Fprintf(&b, "paper: EECS >50%% die <1s; CAMPUS ~half live >10-15min; few CAMPUS blocks die <1s\n")
	return b.String()
}

// Figure4 reports the hourly op counts and read/write ratios across the
// week.
func Figure4(campus, eecs *Trace) string {
	cHourly := &pipeline.HourlyAnalyzer{Span: campus.Days * workload.Day}
	campus.analyze(cHourly)
	eHourly := &pipeline.HourlyAnalyzer{Span: eecs.Days * workload.Day}
	eecs.analyze(eHourly)
	ch, eh := cHourly.Result, eHourly.Result
	cr := ch.RWRatios()
	er := eh.RWRatios()
	days := []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: hourly operation counts and R/W ratios (per hour)\n")
	fmt.Fprintf(&b, "%-9s %12s %12s %10s %10s\n", "hour", "CAMPUS ops", "EECS ops", "CAMPUS r/w", "EECS r/w")
	n := ch.Ops.NumBuckets()
	for i := 0; i < n; i++ {
		// Print every third hour to keep the figure readable.
		if i%3 != 0 {
			continue
		}
		label := fmt.Sprintf("%s %02d:00", days[(i/24)%7], i%24)
		eOps, eRatio := 0.0, 0.0
		if i < eh.Ops.NumBuckets() {
			eOps = eh.Ops.Bucket(i)
			if i < len(er) {
				eRatio = er[i]
			}
		}
		fmt.Fprintf(&b, "%-9s %12.0f %12.0f %10.2f %10.2f\n",
			label, ch.Ops.Bucket(i), eOps, cr[i], eRatio)
	}
	fmt.Fprintf(&b, "paper: CAMPUS cyclical with weekday peaks; ratio steady ~2.5 in peak, spiky off-peak\n")
	return b.String()
}

// Figure5 reports the sequentiality metric by run length.
func Figure5(campus, eecs *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: average sequentiality metric vs bytes accessed in run\n")
	for _, tr := range []*Trace{campus, eecs} {
		ra := &pipeline.RunsAnalyzer{Config: analysis.DefaultRunConfig(tr.ReorderWindowMS)}
		tr.analyze(ra)
		pts := analysis.SequentialityProfile(ra.Result)
		fmt.Fprintf(&b, "%s\n%10s %9s %9s %9s %9s %9s\n", tr.Name,
			"run bytes", "readK10", "readK1", "writeK10", "writeK1", "cum runs")
		for _, p := range pts {
			fmt.Fprintf(&b, "%10s %9s %9s %9s %9s %8.1f%%\n", fmtSize(p.BytesCeil),
				fmtMetric(p.ReadK10), fmtMetric(p.ReadK1),
				fmtMetric(p.WriteK10), fmtMetric(p.WriteK1), p.CumRunsPct)
		}
	}
	fmt.Fprintf(&b, "paper: long CAMPUS reads ~1.0; long CAMPUS writes ~0.6 with k=10;\n")
	fmt.Fprintf(&b, "       EECS writes seek-prone (<0.4 at k=1); small jumps matter\n")
	return b.String()
}

func fmtMetric(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// ExpNfsiod reproduces §4.1.5: reordering vs nfsiod count on an
// isolated network.
func ExpNfsiod() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment §4.1.5: nfsiod count vs call reordering (isolated net)\n")
	fmt.Fprintf(&b, "%8s %10s %12s\n", "nfsiods", "swapped", "max delay")
	for _, n := range []int{1, 2, 4, 6, 8} {
		frac, maxDelay := client.MeasureReordering(n, 40000, 0.00005, 42)
		fmt.Fprintf(&b, "%8d %9.1f%% %11.3fs\n", n, 100*frac, maxDelay)
	}
	fmt.Fprintf(&b, "paper: 1 nfsiod => no reordering; up to 10%% swapped and ~1s delays with more\n")
	return b.String()
}

// ExpNames reproduces §6.3: filename categories predict size, lifetime,
// and pattern.
func ExpNames(campus *Trace) string {
	names := &pipeline.NamesAnalyzer{}
	campus.analyze(names)
	rep := names.ReportAt(campus.Days * workload.Day)
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment §6.3: filename-based prediction (CAMPUS)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %12s %12s %12s\n",
		"category", "created", "deleted", "life p50", "life p99", "size p98")
	for _, cs := range rep.PerCategory {
		if cs.Created == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %8d %8d %12s %12s %12s\n",
			cs.Category, cs.Created, cs.Deleted,
			fmtDuration(cs.Lifetimes.Percentile(50)),
			fmtDuration(cs.Lifetimes.Percentile(99)),
			fmtSize(uint64(cs.Sizes.Percentile(98))))
	}
	locks := rep.PerCategory[analysis.CatLock]
	fmt.Fprintf(&b, "locks: %.1f%% of created-and-deleted files (paper: 96%%); ", 100*rep.LockFracOfDeleted)
	fmt.Fprintf(&b, "%.1f%% live <0.40s (paper: 99.9%%)\n", 100*locks.Lifetimes.At(0.40))
	comp := rep.PerCategory[analysis.CatComposer]
	fmt.Fprintf(&b, "composer: %.0f%% <1min (paper: 45%%), %.0f%% <=8K (paper: 98%%)\n",
		100*comp.Lifetimes.At(60), 100*comp.Sizes.At(8*1024))
	fmt.Fprintf(&b, "name predicts size class: %.0f%% | lifetime class: %.0f%% (paper: \"extremely well\")\n",
		100*rep.SizeAccuracy, 100*rep.LifeAccuracy)
	return b.String()
}

// ExpReadahead reproduces §6.4: the sequentiality-metric read-ahead
// heuristic vs the strict one under ~10% reordering.
func ExpReadahead() string {
	rng := rand.New(rand.NewSource(7))
	var reqs []server.ReadRequest
	for file := uint64(1); file <= 40; file++ {
		start := len(reqs)
		for bl := int64(0); bl < 512; bl++ {
			reqs = append(reqs, server.ReadRequest{File: file, Block: bl, NBlocks: 1})
		}
		for i := start; i < len(reqs)-1; i++ {
			if rng.Float64() < 0.10 {
				reqs[i], reqs[i+1] = reqs[i+1], reqs[i]
			}
		}
	}
	none := server.RunReadPath(reqs, server.NoReadAhead{}, 4096)
	strict := server.RunReadPath(reqs, server.NewStrictSequential(8), 4096)
	metric := server.RunReadPath(reqs, server.NewMetricReadAhead(), 4096)
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment §6.4: read-ahead policy under ~10%% reordered sequential reads\n")
	for _, r := range []server.ReadPathResult{none, strict, metric} {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	fmt.Fprintf(&b, "metric vs strict speedup: %.1f%% (paper: >5%%)\n",
		100*(metric.Throughput/strict.Throughput-1))
	return b.String()
}

// ExpLoss reproduces §4.1.4: estimating capture loss from unmatched
// calls and replies behind an overloaded mirror port.
func ExpLoss(scale Scale) string {
	// Cripple the port so the trace's burst peaks exceed it.
	lossy, port := GenerateCampusLossy(scale, 120e3)
	clean := GenerateCampus(scale)
	return expLossReport(lossy, port, clean)
}

// expLossReport renders the §4.1.4 comparison for already-generated
// traces, so benchmarks can time the analysis without regenerating the
// workload every iteration.
func expLossReport(lossy *Trace, port *netem.MirrorPort, clean *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment §4.1.4: mirror-port loss estimation\n")
	fmt.Fprintf(&b, "  port drop rate (ground truth): %.1f%% of packets\n", 100*port.LossRate())
	fmt.Fprintf(&b, "  estimated from unmatched calls/replies: %.1f%%\n", 100*lossy.Join.LossEstimate())
	fmt.Fprintf(&b, "  ops recovered: %d of %d (%.1f%%)\n", len(lossy.Ops), len(clean.Ops),
		100*float64(len(lossy.Ops))/float64(len(clean.Ops)))
	fmt.Fprintf(&b, "paper: up to ~10%% of packets lost during bursts, estimated the same way\n")
	return b.String()
}

// ExpHierarchy demonstrates §4.1.1: namespace reconstruction coverage.
// The hierarchy is a global analyzer: the pipeline streams it the full
// ordered trace on its own goroutine.
func ExpHierarchy(campus *Trace) string {
	hier := &pipeline.HierarchyAnalyzer{Warmup: 10 * 60}
	campus.analyze(hier)
	cov := hier.Coverage
	var b strings.Builder
	fmt.Fprintf(&b, "Experiment §4.1.1: hierarchy reconstruction\n")
	fmt.Fprintf(&b, "  coverage after 10min warmup: %.2f%%\n", 100*cov)
	fmt.Fprintf(&b, "paper: after several minutes, unseen-parent probability is very small\n")
	return b.String()
}

// TopProcs renders the procedure mix for a trace.
func TopProcs(tr *Trace) string {
	sum := &pipeline.SummaryAnalyzer{Days: tr.Days}
	tr.analyze(sum)
	s := sum.Result
	type pc struct {
		name string
		n    int64
	}
	var list []pc
	for name, n := range s.ProcCounts.ByName() {
		list = append(list, pc{name, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].name < list[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%s procedure mix (%d ops):\n", tr.Name, s.TotalOps)
	for _, p := range list {
		fmt.Fprintf(&b, "  %-12s %8d (%.1f%%)\n", p.name, p.n, 100*float64(p.n)/float64(s.TotalOps))
	}
	return b.String()
}

// ExpNVRAM quantifies the paper's §7 suggestion that delayed writes
// (NVRAM) would absorb much of both workloads' write traffic: the
// fraction of block writes avoided as a function of the write-behind
// delay.
func ExpNVRAM(campus, eecs *Trace) string {
	delays := []float64{1, 10, 30, 60, 300, 900, 3600}
	start, phase := 0.0, campus.Days*workload.Day/2
	if campus.Days >= 3 {
		start, phase = workload.Day+9*workload.Hour, workload.Day
	}
	// One block-life pass per trace, its margin covering the largest
	// delay so that every lifetime up to it is observed.
	absorbed := func(tr *Trace) []analysis.AbsorptionPoint {
		life := &pipeline.BlockLifeAnalyzer{Start: start, Phase: phase, Margin: slices.Max(delays)}
		tr.analyze(life)
		return analysis.WriteAbsorption(life.Result, delays)
	}
	cPts, ePts := absorbed(campus), absorbed(eecs)
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§7): NVRAM write-behind absorption\n")
	fmt.Fprintf(&b, "%10s %12s %12s\n", "delay", "CAMPUS", "EECS")
	for i := range delays {
		fmt.Fprintf(&b, "%10s %11.1f%% %11.1f%%\n",
			fmtDuration(delays[i]), cPts[i].AbsorbedPct, ePts[i].AbsorbedPct)
	}
	fmt.Fprintf(&b, "paper: \"many blocks do not live long enough to be written\" — EECS absorbs\n")
	fmt.Fprintf(&b, "       heavily at tiny delays (sub-second deaths); CAMPUS needs session-length delays\n")
	return b.String()
}

// ExpQuiet quantifies the §7 suggestion that the predictable daily
// rhythm leaves windows for background reorganization.
func ExpQuiet(campus, eecs *Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension (§7): schedulable quiet periods (<10%% of peak load, ≥4h)\n")
	for _, tr := range []*Trace{campus, eecs} {
		hourly := &pipeline.HourlyAnalyzer{Span: tr.Days * workload.Day}
		tr.analyze(hourly)
		ps := analysis.QuietPeriods(hourly.Result, 0.10, 4)
		fmt.Fprintf(&b, "%s: %d periods, %d hours total\n",
			tr.Name, len(ps), analysis.QuietHoursTotal(ps))
		for i, p := range ps {
			if i == 6 {
				fmt.Fprintf(&b, "  ...\n")
				break
			}
			days := []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}
			fmt.Fprintf(&b, "  %s %02d:00 - %s %02d:00 (mean %.0f ops/h)\n",
				days[(p.StartHour/24)%7], p.StartHour%24,
				days[(p.EndHour/24)%7], p.EndHour%24, p.MeanOps)
		}
	}
	fmt.Fprintf(&b, "paper: \"servers could schedule periods of reorganization since the daily\n")
	fmt.Fprintf(&b, "       and weekly pattern of the workload is predictable\"\n")
	return b.String()
}
