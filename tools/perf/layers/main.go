// Command layers is the traced half of the benchmark: it replays one
// workload's input in-process, stage by stage, timing calls into each
// layer's public functions, and writes the per-layer metrics and the
// spans behind them. It is the only part of the benchmark that imports
// repro/internal packages; the end-to-end runner starts it as a child
// process, so an internal API change breaks this view and nothing else.
// README.md lists every internal symbol called from here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"

	"repro/tools/perf/job"
	"repro/tools/perf/span"
)

// tracer carries one traced run's state through the stage replays.
type tracer struct {
	job *job.Job
	rec *span.Recorder
	m   map[string]float64
	out *job.Output
}

// perUnit records a span's per-unit cost in ns under name.
func (t *tracer) perUnit(name string, id int) { t.m[name] = t.rec.Spans[id].PerUnit() }

// ms records a span's duration in milliseconds under name.
func (t *tracer) ms(name string, id int) { t.m[name] = float64(t.rec.Spans[id].Dur()) / 1e6 }

func main() {
	jobPath := flag.String("job", "", "job description written by the runner (JSON)")
	outPath := flag.String("out", "", "where to write metrics and spans (JSON)")
	flag.Parse()
	if err := run(*jobPath, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(jobPath, outPath string) error {
	raw, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var jb job.Job
	if err := json.Unmarshal(raw, &jb); err != nil {
		return fmt.Errorf("%s: %w", jobPath, err)
	}
	t := &tracer{job: &jb, rec: span.NewRecorder(jb.Workload), m: map[string]float64{}}
	t.out = &job.Output{Metrics: t.m}
	switch jb.Workload {
	case "analyze_text", "analyze_binary":
		err = t.analyze()
	case "analyze_dist":
		err = t.dist()
	case "live_monitor":
		err = t.live()
	case "capture_pcap":
		err = t.capture()
	case "serve_read", "serve_write":
		err = t.serve()
	default:
		err = fmt.Errorf("unknown workload %q", jb.Workload)
	}
	if err != nil {
		return err
	}
	t.out.Spans = t.rec.Spans
	enc, err := json.Marshal(t.out)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, enc, 0o644)
}

// mallocs reports the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuClasses samples the runtime's CPU accounting: seconds spent in the
// garbage collector and in total (user + GC + scavenger, idle excluded).
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spanSelf is span id's self time in ns.
func spanSelf(t *tracer, id int) int64 { return span.SelfNS(t.rec.Spans)[id] }
