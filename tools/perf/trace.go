package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
	"time"

	"repro/tools/perf/job"
	"repro/tools/perf/span"
)

// sideMedian is the median of one CLI-side reading over the good passes.
func sideMedian(passes []pass, key string) float64 {
	var xs []float64
	for _, p := range passes {
		if v, ok := p.Side[key]; ok && p.Note == "" {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// traceWorkload produces the per-layer metrics of one workload: the
// in-process staged replay of its input, plus the readings only the
// binaries can give (reference-run rate, coordinator comparisons,
// per-class client latencies). It writes the spans next to the
// benchmark and prints the stage-share table.
func traceWorkload(e *env, w workload, inst *instance, passes []pass, seed int64) (map[string]float64, error) {
	jb := inst.job
	jb.Workload, jb.Seed, jb.TempDir = w.Name, seed, e.work
	jobPath := filepath.Join(e.work, w.Name+"-job.json")
	outPath := filepath.Join(e.work, w.Name+"-layers.json")
	raw, err := json.Marshal(jb)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(jobPath, raw, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(jobPath)
	defer os.Remove(outPath)
	if _, err := e.run(150*time.Second, nil, "perflayers", "-job", jobPath, "-out", outPath); err != nil {
		return nil, err
	}
	var out job.Output
	if raw, err = os.ReadFile(outPath); err == nil {
		err = json.Unmarshal(raw, &out)
	}
	if err != nil {
		return nil, err
	}

	layers := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		layers[d.Name] = 0
	}
	set := func(name string, v float64) error {
		if _, ok := layers[name]; !ok {
			return fmt.Errorf("per-layer metric %q is not in the metric table", name)
		}
		layers[name] = v
		return nil
	}
	for name, v := range out.Metrics {
		if err := set(name, v); err != nil {
			return nil, err
		}
	}
	for name, v := range inst.side {
		if err := set(name, v); err != nil {
			return nil, err
		}
	}
	var walls []float64
	for _, p := range passes {
		if p.Note == "" {
			walls = append(walls, p.WallS)
		}
	}
	cliWall := median(walls)
	if cliWall > 0 {
		layers["perf.inproc_over_cli"] = out.InprocWallS / cliWall
	}

	switch w.Name {
	case "analyze_dist":
		if direct := sideMedian(passes, "direct_wall_s"); direct > 0 {
			layers["nfsanalyze.dist_overhead_ratio"] = cliWall / direct
		}
		// The local coordinator: subprocess workers instead of daemons.
		var local []float64
		args := append([]string{"-analysis", "runs", "-coordinator", "-workers", "2"}, jb.Pieces...)
		for i := 0; i < 3; i++ {
			res, err := e.run(setupDeadline, nil, "nfsanalyze", args...)
			if err != nil {
				return nil, err
			}
			local = append(local, res.wall.Seconds())
		}
		layers["nfsanalyze.local_coord_wall_s"] = median(local)
	case "live_monitor":
		for _, name := range []string{"nfsmond.scrape_p50_ms", "nfsmond.scrape_full_ms"} {
			layers[name] = sideMedian(passes, name)
		}
	case "serve_read", "serve_write":
		for _, class := range []string{"read", "write", "meta"} {
			layers["client."+class+"_p50_us"] = sideMedian(passes, "client."+class+"_p50_us")
		}
		if mean := sideMedian(passes, "mean_us"); mean > 0 {
			layers["server.socket_share"] = 1 - layers["server.inproc_ns_per_op"]/1000/mean
		}
	}

	spanPath := filepath.Join(e.out, "trace_"+w.Name+".json")
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	if raw, err = json.Marshal(out.Spans); err != nil {
		return nil, err
	}
	if err := os.WriteFile(spanPath, raw, 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "perf: %s: %d spans in %s\n", w.Name, len(out.Spans), spanPath)
	printShares(e, out.Spans)
	return layers, nil
}

// printShares prints the stage-share table of the staged pass (pass 0):
// where the replayed time went, by self time.
func printShares(e *env, spans []span.Span) {
	tw := tabwriter.NewWriter(e.log, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "stage\tcalls\tunits\ttotal ms\tself ms\tns/unit\tshare\t")
	for _, row := range span.Shares(spans, 0) {
		perUnit := 0.0
		if row.Units > 0 {
			perUnit = float64(row.TotalNS) / float64(row.Units)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.1f\t%.1f%%\t\n", row.Name, row.Calls, row.Units,
			float64(row.TotalNS)/1e6, float64(row.SelfNS)/1e6, perUnit, 100*row.Share)
	}
	tw.Flush()
}
