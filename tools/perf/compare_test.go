package main

import (
	"bytes"
	"strings"
	"testing"
)

// steady builds a sample whose passes sit within ±1% of v.
func steady(v float64) sample {
	return summarize("x", []float64{v * 0.99, v, v, v * 1.01, v})
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "work_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	noisy := summarize("x", []float64{60, 80, 100, 120, 140})
	cases := []struct {
		name string
		d    metricDef
		a, b sample
		want string
	}{
		{"throughput down 20%", higher, steady(100), steady(80), "regressed"},
		{"throughput up 20%", higher, steady(100), steady(120), "improved"},
		{"throughput down 5%", higher, steady(100), steady(95), "unchanged"},
		{"latency up 20%", lower, steady(100), steady(120), "regressed"},
		{"latency down 20%", lower, steady(100), steady(80), "improved"},
		{"inside the bound but one side too noisy to tell", lower, steady(100), noisy, "unresolved"},
		{"past the bound even though noisy", higher, noisy, steady(50), "regressed"},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got.Status != c.want {
			t.Errorf("%s: %s (worse by %.3f), want %s", c.name, got.Status, got.Worse, c.want)
		}
	}
}

func TestReportExitCodeAndRows(t *testing.T) {
	metrics := func(perS float64) map[string]sample {
		m := map[string]sample{}
		for _, d := range endToEnd {
			m[d.Name] = steady(10)
		}
		m["work_per_s"] = steady(perS)
		return m
	}
	a := &resultSet{Workloads: []*workloadResult{{Name: "analyze_text", Metrics: metrics(100)}, {Name: "serve_read", Metrics: metrics(100)}}}
	same := &resultSet{Workloads: []*workloadResult{{Name: "analyze_text", Metrics: metrics(101)}, {Name: "serve_read", Metrics: metrics(99)}}}
	slow := &resultSet{Workloads: []*workloadResult{{Name: "analyze_text", Metrics: metrics(100)}, {Name: "serve_read", Metrics: metrics(70)}}}

	var out bytes.Buffer
	if code := report(a, same, &out); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	if got := strings.Count(out.String(), "unchanged"); got != 2*len(endToEnd) {
		t.Errorf("%d unchanged rows, want %d\n%s", got, 2*len(endToEnd), out.String())
	}
	out.Reset()
	if code := report(a, slow, &out); code != 1 {
		t.Errorf("a 30%% throughput loss: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("no regressed row:\n%s", out.String())
	}
	out.Reset()
	same.Workloads[0].Failed, same.Workloads[0].FailShare = 5, 0.5
	if code := report(a, same, &out); code != 1 || !strings.Contains(out.String(), "fail_share 0.5") {
		t.Errorf("failed output checks: exit %d\n%s", code, out.String())
	}
}
