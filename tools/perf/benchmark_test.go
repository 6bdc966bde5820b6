package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json at the repository root from the tables in this package")

// runSeconds is BENCHMARK.json's run_seconds: what the acceptance
// harness passes as --seconds.
const runSeconds = 6

// benchmarkJSON renders the description of this benchmark that the
// acceptance harness reads, from the same tables the runner uses.
func benchmarkJSON(t *testing.T) []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "tools/perf/run.sh"},
		Paths:      []string{"tools/perf"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	want := benchmarkJSON(t)
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date with the workload and metric tables; run `go test -run BenchmarkJSON -update`", path)
	}
}

// TestContractLimits pins the limits the acceptance harness puts on
// names, units, counts and sizes, so a table edit that breaks them fails
// here and not in the harness.
func TestContractLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q breaks the charset or length limit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, d := range endToEnd {
		name("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the charset or length limit", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		name("per-layer", d.Name)
	}
	if raw := benchmarkJSON(t); len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json would be %d bytes, limit 64 KiB", len(raw))
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}

func TestHarnessLine(t *testing.T) {
	r := &workloadResult{Attempted: 10, Failed: 0, Metrics: map[string]sample{}, PerLayer: map[string]float64{"vfs.op_ns": 12.5}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = sample{Value: 1.25, Unit: d.Unit}
	}
	for _, trace := range []bool{false, true} {
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(harnessLine(r, trace)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if line.Correct == nil || !*line.Correct || line.Attempted != 10 || len(line.Metrics) != len(defs) {
			t.Errorf("trace=%v: line = %+v", trace, line)
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s = %+v, %v", trace, d.Name, m, ok)
			}
		}
	}
	if got := normalize([]string{"--workload", "w", "--trace", "1", "--seed", "3"}); strings.Join(got, " ") != "--workload w -trace=1 --seed 3" {
		t.Errorf("normalize = %v", got)
	}
	if got := normalize([]string{"-trace", "-seed", "3"}); strings.Join(got, " ") != "-trace -seed 3" {
		t.Errorf("normalize = %v", got)
	}
}
