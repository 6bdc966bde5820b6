package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// verdict is the outcome of comparing one metric of one workload
// between two result sets.
type verdict struct {
	Workload, Metric string
	A, B             float64 // medians
	Worse            float64 // share of A by which B is worse (negative: better)
	Bound            float64
	Status           string // regressed, improved, unchanged, unresolved
}

// judge compares b against a for one end-to-end metric. A pair whose
// own pass-to-pass quartile spread exceeds the bound cannot show a
// change of that size either way: it is unresolved, not unchanged.
func judge(d metricDef, a, b sample) verdict {
	v := verdict{Metric: d.Name, A: a.Value, B: b.Value, Bound: d.Bound}
	if a.Value != 0 {
		v.Worse = (b.Value - a.Value) / a.Value
		if d.Better == "higher" {
			v.Worse = -v.Worse
		}
	}
	switch {
	case v.Worse > d.Bound:
		v.Status = "regressed"
	case spread(a.Samples) > d.Bound || spread(b.Samples) > d.Bound:
		v.Status = "unresolved"
	case v.Worse < -d.Bound:
		v.Status = "improved"
	default:
		v.Status = "unchanged"
	}
	return v
}

func loadResults(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareSets judges every workload × end-to-end metric both sets hold.
func compareSets(a, b *resultSet) []verdict {
	var out []verdict
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name || wa.Metrics == nil || wb.Metrics == nil {
				continue
			}
			for _, d := range endToEnd {
				v := judge(d, wa.Metrics[d.Name], wb.Metrics[d.Name])
				v.Workload = wa.Name
				out = append(out, v)
			}
		}
	}
	return out
}

// compareFiles prints the comparison and returns 1 when any metric
// regressed past its bound or any workload failed an output check.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]*resultSet
	for i, path := range []string{pathA, pathB} {
		set, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 2
		}
		sets[i] = set
	}
	return report(sets[0], sets[1], stdout)
}

func report(a, b *resultSet, stdout io.Writer) int {
	code := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tworse by\tbound\tstatus")
	for _, v := range compareSets(a, b) {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.0f%%\t%s\n",
			v.Workload, v.Metric, v.A, v.B, 100*v.Worse, 100*v.Bound, v.Status)
		if v.Status == "regressed" {
			code = 1
		}
	}
	tw.Flush()
	for _, set := range []*resultSet{a, b} {
		for _, w := range set.Workloads {
			if w.Failed > 0 {
				fmt.Fprintf(stdout, "%s: fail_share %g (seed %d)\n", w.Name, w.FailShare, set.Seed)
				code = 1
			}
		}
	}
	return code
}
