package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
)

func convertTrace(t *testing.T, dir string) string {
	t.Helper()
	scale := repro.SmallScale()
	scale.Days = 0.25
	records := repro.GenerateCampusRecords(scale)
	if len(records) == 0 {
		t.Fatal("generator produced no records")
	}
	var buf bytes.Buffer
	if err := repro.WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "campus.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readRecords(t *testing.T, path string) []*core.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, err := core.DetectSource(f)
	if err != nil {
		t.Fatal(err)
	}
	var records []*core.Record
	for {
		rec, err := src.Next()
		if err != nil {
			return records
		}
		records = append(records, rec)
	}
}

// TestConvertRoundTrip drives text → binary → text and checks the
// second text→binary→text pass is byte-stable (the first pass rounds
// times to the µs grid the binary format stores).
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	text := convertTrace(t, dir)
	bin1 := filepath.Join(dir, "pass1.btrace")
	text1 := filepath.Join(dir, "pass1.trace")
	bin2 := filepath.Join(dir, "pass2.btrace")
	text2 := filepath.Join(dir, "pass2.trace")

	steps := [][]string{
		{"-binary", "-o", bin1, text},
		{"-o", text1, bin1},
		{"-binary", "-o", bin2, text1},
		{"-o", text2, bin2},
	}
	for _, args := range steps {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("%v: %v (stderr: %s)", args, err, errb.String())
		}
		if !strings.Contains(errb.String(), "merged 1 inputs") {
			t.Fatalf("%v: missing summary: %s", args, errb.String())
		}
	}

	want := readRecords(t, text)
	got := readRecords(t, text1)
	if len(got) != len(want) {
		t.Fatalf("round trip kept %d of %d records", len(got), len(want))
	}
	a, err := os.ReadFile(text1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(text2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("µs-aligned text round trip is not byte-stable")
	}
}

// TestConvertMergesGzipSet splits the trace, gzips one half, and
// merges both back; the result must equal the original stream after
// one canonicalizing pass.
func TestConvertMergesGzipSet(t *testing.T) {
	dir := t.TempDir()
	text := convertTrace(t, dir)
	data, err := os.ReadFile(text)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := len(lines) / 2
	partA := filepath.Join(dir, "set-day1.trace")
	if err := os.WriteFile(partA, bytes.Join(lines[:mid], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(bytes.Join(lines[mid:], nil))
	zw.Close()
	partB := filepath.Join(dir, "set-day2.trace.gz")
	if err := os.WriteFile(partB, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	merged := filepath.Join(dir, "merged.trace")
	var out, errb bytes.Buffer
	if err := run([]string{"-o", merged, filepath.Join(dir, "set-day*")}, &out, &errb); err != nil {
		t.Fatalf("%v (stderr: %s)", err, errb.String())
	}
	if !strings.Contains(errb.String(), "merged 2 inputs") {
		t.Fatalf("summary: %s", errb.String())
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("merged trace set differs from the original stream")
	}
}

func TestConvertErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{}, &out, &errb); err == nil {
		t.Fatal("no inputs accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.trace")}, &out, &errb); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := run([]string{"-badflag"}, &out, &errb); err == nil {
		t.Fatal("bad flag accepted")
	}
	// Every input is decoded on one read-ahead; there is no decoder count.
	if err := run([]string{"-decoders", "2", filepath.Join(t.TempDir(), "x.trace")}, &out, &errb); err == nil {
		t.Fatal("-decoders accepted")
	}
	errb.Reset()
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(errb.String(), "-binary") {
		t.Fatalf("-h usage missing flags: %s", errb.String())
	}
}
