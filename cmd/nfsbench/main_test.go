package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// benchRun invokes run() with a tiny deterministic workload and parses
// the JSON report.
func benchRun(t *testing.T, extra ...string) *Report {
	t.Helper()
	args := append([]string{
		"-seed", "1", "-n", "200", "-T", "2", "-c", "2",
		"-files", "8", "-filesize", "4096", "-xfer", "512",
		"-interval", "0",
	}, extra...)
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, stdout.String())
	}
	return &rep
}

// TestBenchDeterministicOpCounts runs the harness twice with the same
// seed and asserts the op mix is bit-reproducible.
func TestBenchDeterministicOpCounts(t *testing.T) {
	a := benchRun(t)
	b := benchRun(t)
	if a.TotalOps != 200 || b.TotalOps != 200 {
		t.Fatalf("total_ops %d/%d, want 200", a.TotalOps, b.TotalOps)
	}
	if !reflect.DeepEqual(a.OpCounts, b.OpCounts) {
		t.Fatalf("op counts differ across same-seed runs:\n%v\n%v", a.OpCounts, b.OpCounts)
	}
	for _, class := range []string{"read", "write", "meta", "all"} {
		if a.Classes[class].Ops != b.Classes[class].Ops {
			t.Errorf("class %s: ops %d vs %d across same-seed runs",
				class, a.Classes[class].Ops, b.Classes[class].Ops)
		}
	}
	// A different seed must shuffle the mix.
	c := benchRun(t, "-seed", "2")
	if reflect.DeepEqual(a.OpCounts, c.OpCounts) {
		t.Error("op counts identical across different seeds")
	}
}

// TestBenchFourConnections drives four connections at once, each with
// its reader loop and its writers running concurrently. wire.RecordConn
// once shared a header buffer between the two directions, which under
// load corrupted frames (errors, hangs) and fails this test under -race.
func TestBenchFourConnections(t *testing.T) {
	rep := benchRun(t, "-n", "3000", "-T", "1", "-c", "4", "-filesize", "65536")
	if rep.Errors != 0 || rep.TotalOps != 3000 {
		t.Fatalf("total_ops %d errors %d, want 3000 and 0", rep.TotalOps, rep.Errors)
	}
}

// TestBenchReportShape sanity-checks the report invariants: counts add
// up, no errors against the in-process server, percentiles are ordered,
// and the CDF ends at 1.
func TestBenchReportShape(t *testing.T) {
	rep := benchRun(t)
	if rep.Errors != 0 {
		t.Fatalf("%d errors against in-process server", rep.Errors)
	}
	var sum int64
	for _, v := range rep.OpCounts {
		sum += v
	}
	if sum != rep.TotalOps {
		t.Fatalf("op_counts sum %d, want total_ops %d", sum, rep.TotalOps)
	}
	all := rep.Classes["all"]
	if all.Ops != rep.TotalOps {
		t.Fatalf("all.ops %d, want %d", all.Ops, rep.TotalOps)
	}
	if rep.Classes["read"].Ops+rep.Classes["write"].Ops+rep.Classes["meta"].Ops != all.Ops {
		t.Fatal("per-class ops do not sum to the total")
	}
	if !(all.P50Us <= all.P90Us && all.P90Us <= all.P99Us && all.P99Us <= all.P999Us) {
		t.Fatalf("percentiles out of order: %v %v %v %v", all.P50Us, all.P90Us, all.P99Us, all.P999Us)
	}
	if all.MinUs <= 0 || all.MaxUs < all.P999Us {
		t.Fatalf("min/max inconsistent: min %v max %v p999 %v", all.MinUs, all.MaxUs, all.P999Us)
	}
	if len(all.CDF) == 0 || all.CDF[len(all.CDF)-1].Fraction != 1 {
		t.Fatal("CDF missing or does not end at 1")
	}
	if rep.ThroughputOpsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Fatal("throughput/elapsed not positive")
	}
	if rep.Config.Mode != "closed" || rep.Config.Seed != 1 {
		t.Fatalf("config echo wrong: %+v", rep.Config)
	}
}

// TestBenchOpenLoop exercises the Poisson arrival path end to end with
// a rate high enough to finish quickly.
func TestBenchOpenLoop(t *testing.T) {
	a := benchRun(t, "-rate", "50000", "-n", "150")
	b := benchRun(t, "-rate", "50000", "-n", "150")
	if a.Config.Mode != "open" {
		t.Fatalf("mode %q, want open", a.Config.Mode)
	}
	if a.TotalOps != 150 || a.Errors != 0 {
		t.Fatalf("total_ops %d errors %d", a.TotalOps, a.Errors)
	}
	if !reflect.DeepEqual(a.OpCounts, b.OpCounts) {
		t.Fatalf("open-loop op counts differ across same-seed runs:\n%v\n%v", a.OpCounts, b.OpCounts)
	}
}

// TestBenchBadFlags covers flag validation.
func TestBenchBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-T", "0"},
		{"-read", "80", "-write", "30"},
		{"-version", "4"},
		{"-xfer", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, &out); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}
