package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRunTextTrace generates a short CAMPUS window and checks the text
// trace and the record count on stderr.
func TestRunTextTrace(t *testing.T) {
	var out, errb bytes.Buffer
	// 0.3 days reaches Sunday daytime; shorter windows sit in the
	// midnight diurnal trough and legitimately emit nothing.
	if err := run([]string{"-system", "campus", "-users", "2", "-days", "0.3"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	if out.Len() == 0 {
		t.Fatal("no trace output")
	}
	if !strings.Contains(errb.String(), "wrote") {
		t.Fatalf("stderr missing record count: %s", errb.String())
	}
	// Text traces are line-oriented with the paper's C/R direction field.
	first := strings.SplitN(out.String(), "\n", 2)[0]
	fields := strings.Fields(first)
	if len(fields) < 6 || (fields[1] != "C" && fields[1] != "R") {
		t.Fatalf("first line does not look like a trace record: %q", first)
	}
}

// TestRunDeterministic: same seed, byte-identical trace.
func TestRunDeterministic(t *testing.T) {
	gen := func(seed string) []byte {
		t.Helper()
		var out, errb bytes.Buffer
		if err := run([]string{"-system", "eecs", "-clients", "1", "-days", "0.02", "-seed", seed}, &out, &errb); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.Bytes()
	}
	a, b := gen("7"), gen("7")
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed traces differ")
	}
	if bytes.Equal(a, gen("8")) {
		t.Fatal("different-seed traces identical")
	}
}

// TestRunCaptureOrder: the trace comes out in capture order, with no
// backward time step, at scales where sessions emit records far ahead
// of the simulator clock (CAMPUS at 100 users, up to ~2 000 s) and
// across EECS's workstations.
func TestRunCaptureOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 1.3 M records")
	}
	for _, args := range [][]string{
		{"-system", "campus", "-users", "100", "-days", "1"},
		{"-system", "eecs", "-clients", "4", "-days", "2"},
	} {
		path := filepath.Join(t.TempDir(), "trace")
		var out, errb bytes.Buffer
		if err := run(append(args, "-o", path), &out, &errb); err != nil {
			t.Fatalf("%v: %v (stderr: %s)", args, err, errb.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		lines, back, last := 0, 0, 0.0
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			lines++
			field, _, _ := strings.Cut(sc.Text(), " ")
			ts, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatalf("%v: line %d: %v", args, lines, err)
			}
			if ts < last {
				back++
			}
			last = ts
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if lines < 100000 || back != 0 {
			t.Errorf("%v: %d lines, %d backward time steps; want 0", args, lines, back)
		}
	}
}

// TestRunPcap checks the -pcap path emits a nanosecond-resolution pcap
// file through -o.
func TestRunPcap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "eecs.pcap")
	var out, errb bytes.Buffer
	if err := run([]string{"-system", "eecs", "-clients", "1", "-days", "0.02", "-pcap", "-o", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 24 {
		t.Fatalf("pcap too short: %d bytes", len(data))
	}
	// Nanosecond pcap magic, little-endian on the wire.
	if !bytes.Equal(data[:4], []byte{0x4D, 0x3C, 0xB2, 0xA1}) {
		t.Fatalf("bad pcap magic: % x", data[:4])
	}
	if !strings.Contains(errb.String(), "packets") {
		t.Fatalf("stderr missing packet count: %s", errb.String())
	}
}

// TestRunErrors covers the failure paths.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "nosuch"},
		{"-system", "nosuch", "-pcap"},
		{"-badflag"},
	} {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
	// -h prints usage and succeeds.
	var out, errb bytes.Buffer
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(errb.String(), "-system") {
		t.Fatalf("-h usage missing flags: %s", errb.String())
	}
}
