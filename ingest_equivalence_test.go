package repro

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// This file is the end-to-end determinism guarantee for the parallel
// ingest front end, mirroring pipeline_equivalence_test.go one layer
// down: whatever the decoder count, however the trace set is cut into
// files, and whichever on-disk format (text, binary, gzip) carries it,
// every table and figure must render byte-identically to the serial
// single-file path.

// renderedExperiments renders Table1–Figure5 and the side experiments
// that read a trace for a campus/eecs pair: everything that goes
// through (*Trace).analyze.
func renderedExperiments(campus, eecs *Trace) map[string]string {
	experiments := map[string]func(*Trace, *Trace) string{
		"Table1": Table1, "Table2": Table2, "Table3": Table3,
		"Table4": Table4, "Table5": Table5,
		"Figure1": Figure1, "Figure2": Figure2, "Figure3": Figure3,
		"Figure4": Figure4, "Figure5": Figure5,
		"ExpNVRAM": ExpNVRAM, "ExpQuiet": ExpQuiet,
	}
	out := make(map[string]string, len(experiments)+2)
	for name, fn := range experiments {
		out[name] = fn(campus, eecs)
	}
	out["ExpNames"], out["ExpHierarchy"] = ExpNames(campus), ExpHierarchy(campus)
	return out
}

// ingestTrace joins a record source into a Trace, as nfsanalyze does.
func ingestTrace(t *testing.T, src core.RecordSource, name string, days float64, reorderMS float64) *Trace {
	t.Helper()
	tr := &Trace{Name: name, Days: days, ReorderWindowMS: reorderMS}
	j := pipeline.NewJoiner(src)
	for {
		op, err := j.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tr.Ops = append(tr.Ops, op)
	}
	tr.Join = j.Stats()
	return tr
}

func writeFile(t *testing.T, path string, data []byte) string {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func textBytes(t *testing.T, records []*core.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteAll(&buf, records); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gzBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openSet ingests a trace set into a Trace via the parallel front end.
func openSet(t *testing.T, paths []string, cfg core.IngestConfig, name string, days, reorderMS float64) *Trace {
	t.Helper()
	ts, err := pipeline.OpenTraceSet(paths, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	return ingestTrace(t, ts, name, days, reorderMS)
}

func TestParallelIngestByteIdenticalTables(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	campusRecs := GenerateCampusRecords(scale)
	eecsRecs := GenerateEECSRecords(scale)
	dir := t.TempDir()

	campusText := textBytes(t, campusRecs)
	eecsText := textBytes(t, eecsRecs)
	campusPath := writeFile(t, filepath.Join(dir, "campus.trace"), campusText)
	eecsPath := writeFile(t, filepath.Join(dir, "eecs.trace"), eecsText)

	// Serial reference: the pre-existing one-goroutine reader.
	serialTrace := func(data []byte, name string, reorderMS float64) *Trace {
		src, err := core.DetectSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return ingestTrace(t, src, name, scale.Days, reorderMS)
	}
	want := renderedExperiments(
		serialTrace(campusText, "CAMPUS", 10),
		serialTrace(eecsText, "EECS", 5))

	compare := func(label string, got map[string]string) {
		t.Helper()
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%s: %s differs from the serial path:\n--- serial ---\n%s\n--- %s ---\n%s",
					label, name, w, label, got[name])
			}
		}
	}

	// Parallel ingest across the full decoder × worker grid, small
	// batches to force many splits: the rendered tables must be
	// byte-identical to the serial single-worker reference at every
	// combination, which pins down both the resequencer and the
	// ID-keyed reducers (handle intern IDs vary with decode
	// interleaving; output must not).
	for _, decoders := range []int{1, 2, 8} {
		for _, workers := range []int{1, 2, 8} {
			cfg := core.IngestConfig{Decoders: decoders, BatchBytes: 8 << 10}
			campusTr := openSet(t, []string{campusPath}, cfg, "CAMPUS", scale.Days, 10)
			eecsTr := openSet(t, []string{eecsPath}, cfg, "EECS", scale.Days, 5)
			campusTr.Pipeline = pipeline.Config{Workers: workers}
			eecsTr.Pipeline = pipeline.Config{Workers: workers}
			got := renderedExperiments(campusTr, eecsTr)
			compare(fmt.Sprintf("decoders=%d workers=%d", decoders, workers), got)
		}
	}

	// Multi-file trace set: the campus trace cut at its time midpoint
	// into two day-style files, the second gzipped; the k-way merge
	// must reproduce the exact stream.
	mid := (campusRecs[0].Time + campusRecs[len(campusRecs)-1].Time) / 2
	cut := 0
	for cut < len(campusRecs) && campusRecs[cut].Time < mid {
		cut++
	}
	partA := writeFile(t, filepath.Join(dir, "campus-day1.trace"), textBytes(t, campusRecs[:cut]))
	partB := writeFile(t, filepath.Join(dir, "campus-day2.trace.gz"),
		gzBytes(t, textBytes(t, campusRecs[cut:])))
	cfg := core.IngestConfig{Decoders: 2, BatchBytes: 8 << 10}
	got := renderedExperiments(
		openSet(t, []string{partA, partB}, cfg, "CAMPUS", scale.Days, 10),
		openSet(t, []string{eecsPath}, cfg, "EECS", scale.Days, 5))
	compare("multi-file set", got)
}

// TestParallelIngestBinaryByteIdentical covers the binary format: the
// reference is the serial binary reader over the same file (binary
// storage rounds times to the microsecond, so the text-path tables are
// not the comparison point).
func TestParallelIngestBinaryByteIdentical(t *testing.T) {
	scale := SmallScale()
	scale.Days = 0.25
	campusRecs := GenerateCampusRecords(scale)
	eecsRecs := GenerateEECSRecords(scale)
	dir := t.TempDir()

	binBytes := func(records []*core.Record) []byte {
		var buf bytes.Buffer
		w := core.NewBinaryWriter(&buf)
		for _, r := range records {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	campusBin := binBytes(campusRecs)
	eecsBin := binBytes(eecsRecs)
	campusPath := writeFile(t, filepath.Join(dir, "campus.btrace"), campusBin)
	eecsPath := writeFile(t, filepath.Join(dir, "eecs.btrace"), eecsBin)

	serial := func(data []byte, name string, reorderMS float64) *Trace {
		src, err := core.DetectSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return ingestTrace(t, src, name, scale.Days, reorderMS)
	}
	want := renderedExperiments(
		serial(campusBin, "CAMPUS", 10),
		serial(eecsBin, "EECS", 5))

	cfg := core.IngestConfig{Decoders: 4, BatchRecords: 256}
	got := renderedExperiments(
		openSet(t, []string{campusPath}, cfg, "CAMPUS", scale.Days, 10),
		openSet(t, []string{eecsPath}, cfg, "EECS", scale.Days, 5))
	for name, w := range want {
		if got[name] != w {
			t.Errorf("binary ingest: %s differs from the serial binary path", name)
		}
	}
}
