package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// smokeTrace generates a small CAMPUS trace and writes it as a text
// file, returning the path and the raw lines.
func smokeTrace(t *testing.T, dir string) (string, []byte) {
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
	return path, buf.Bytes()
}

func TestRunEveryAnalysis(t *testing.T) {
	path, _ := smokeTrace(t, t.TempDir())
	for _, analysis := range allKinds {
		var out, errb bytes.Buffer
		err := run([]string{"-i", path, "-analysis", analysis, "-workers", "2", "-decoders", "2"}, &out, &errb)
		if err != nil {
			t.Fatalf("%s: %v (stderr: %s)", analysis, err, errb.String())
		}
		if out.Len() == 0 {
			t.Fatalf("%s: no output", analysis)
		}
	}
}

// TestRunMultiFileMatchesSingle cuts the trace into two files at a
// line boundary and checks the k-way-merged analysis output is
// byte-identical to the single-file run.
func TestRunMultiFileMatchesSingle(t *testing.T) {
	dir := t.TempDir()
	path, data := smokeTrace(t, dir)
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := len(lines) / 2
	partA := filepath.Join(dir, "day1.trace")
	partB := filepath.Join(dir, "day2.trace")
	if err := os.WriteFile(partA, bytes.Join(lines[:mid], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partB, bytes.Join(lines[mid:], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	var single, merged, errb bytes.Buffer
	if err := run([]string{"-i", path, "-analysis", "summary"}, &single, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-analysis", "summary", partA, partB}, &merged, &errb); err != nil {
		t.Fatal(err)
	}
	if single.String() != merged.String() {
		t.Fatalf("multi-file output differs:\n--- single ---\n%s\n--- merged ---\n%s", single.String(), merged.String())
	}
	// Per-file stats land on stderr for multi-file runs.
	if !strings.Contains(errb.String(), "day1.trace") {
		t.Fatalf("stderr missing per-file stats: %s", errb.String())
	}
}

func TestRunGlobInput(t *testing.T) {
	dir := t.TempDir()
	_, data := smokeTrace(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "a.trace"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-analysis", "summary", filepath.Join(dir, "a.*")}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "join:") {
		t.Fatalf("unexpected output: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	path, _ := smokeTrace(t, dir)
	cases := [][]string{
		{"-i", path, "-analysis", "nosuch"},
		{"-i", filepath.Join(dir, "missing.trace")},
		{"-badflag"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
	}
	// -h prints usage and succeeds; the usage goes to stderr once.
	var outh, errbh bytes.Buffer
	if err := run([]string{"-h"}, &outh, &errbh); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(errbh.String(), "-decoders") {
		t.Fatalf("-h usage missing flags: %s", errbh.String())
	}
	// An empty trace is an error, not a zero-division crash.
	empty := filepath.Join(dir, "empty.trace")
	if err := os.WriteFile(empty, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-i", empty}, &out, &errb); err == nil {
		t.Fatal("empty trace accepted")
	}
}
