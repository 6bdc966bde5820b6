// Command perf is the repository's benchmark: seven workloads driven
// through the shipped binaries, end-to-end metrics measured with tracing
// off, and a separate traced run that replays each workload's input
// in-process, stage by stage, for the per-layer metrics. README.md
// documents every metric and workload; BENCHMARK.json at the repository
// root describes this command to the acceptance harness.
//
// Run it through run.sh (which keeps the Go caches inside the checkout)
// or directly:
//
//	go run -C tools/perf . [-workloads a,b] [-seed n] [-scale full|smoke]
//	       [-seconds s | -passes n] [-trace] [-out results.json]
//	go run -C tools/perf . -compare a.json b.json
//
// The harness form `--workload w --seed n --seconds s --trace 0|1` runs
// one workload and prints one JSON object as the last line of stdout.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// resultSet is one run of the benchmark, the content of a
// results/BENCH_*.json file.
type resultSet struct {
	GitRev     string            `json:"git_rev"`
	NProc      int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Seed       int64             `json:"seed"`
	Scale      string            `json:"scale"`
	Seconds    float64           `json:"seconds"`
	Passes     int               `json:"passes,omitempty"`
	Trace      bool              `json:"trace"`
	Started    string            `json:"started"`
	Workloads  []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// normalize lets the harness's `--trace 0|1` reach a boolean flag, which
// would otherwise take the digit for a positional argument.
func normalize(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	one := fs.String("workload", "", "run this one workload and print the harness's result line last")
	list := fs.String("workloads", "", "comma-separated workloads to run (default: all seven)")
	fs.Int64Var(&opt.seed, "seed", 20011021, "seed every input is generated from")
	fs.StringVar(&opt.scaleName, "scale", "full", "input sizes: full or smoke")
	fs.Float64Var(&opt.seconds, "seconds", 6, "time budget of each workload's timed passes (each pass is fixed work; at least 5 run, 3 for live_monitor)")
	fs.IntVar(&opt.passes, "passes", 0, "run exactly this many timed passes per workload instead of filling -seconds")
	fs.BoolVar(&opt.trace, "trace", false, "traced run: per-layer metrics, span files in tools/perf/out/, stage-share tables")
	compare := fs.Bool("compare", false, "compare two result files: perf -compare a.json b.json")
	outPath := fs.String("out", "", "write the full result set (per-pass values, medians, quartiles) to this JSON file")
	if err := fs.Parse(normalize(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perf: unexpected arguments %v\n", fs.Args())
		return 2
	}

	names := strings.Split(*list, ",")
	if *one != "" {
		names = []string{*one}
	} else if *list == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	var picked []workload
	for _, name := range names {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q\n", name)
			return 2
		}
		picked = append(picked, w)
	}
	if _, ok := scales[opt.scaleName]; !ok {
		fmt.Fprintf(stderr, "perf: unknown scale %q\n", opt.scaleName)
		return 2
	}

	set, err := runAll(picked, opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	if *outPath != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 1
		}
	}
	failed := false
	for _, w := range set.Workloads {
		printWorkload(stdout, w)
		failed = failed || w.Failed > 0
	}
	if *one != "" {
		fmt.Fprintln(stdout, harnessLine(set.Workloads[0], opt.trace))
	}
	if failed {
		return 1
	}
	return 0
}

// runAll builds the binaries and measures the picked workloads one
// after another from this one process. SIGINT and SIGTERM cancel the
// context every child runs under; the scratch directory is removed on
// every way out.
func runAll(picked []workload, opt options, stderr io.Writer) (*resultSet, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	// Everything the benchmark writes stays inside the checkout.
	base := filepath.Join(root, ".bench_build", "perf")
	e := &env{ctx: ctx, bin: filepath.Join(base, "bin"), log: stderr}
	if err := build(ctx, root, e.bin, opt.trace); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(base, "work-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	e.out = filepath.Join(root, "tools", "perf", "out")

	set := &resultSet{
		GitRev: gitRev(root), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Seed: opt.seed, Scale: opt.scaleName,
		Seconds: opt.seconds, Passes: opt.passes, Trace: opt.trace,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	for _, w := range picked {
		fmt.Fprintf(stderr, "perf: %s (seed %d, scale %s)\n", w.Name, opt.seed, opt.scaleName)
		res, err := runWorkload(e, w, opt)
		if err != nil {
			if ctx.Err() != nil {
				err = errors.New("interrupted")
			}
			return nil, err
		}
		set.Workloads = append(set.Workloads, res)
	}
	return set, nil
}

func gitRev(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the harness's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// printWorkload prints every metric of one workload by name with unit.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "%s: %d passes of %d %s, fail_share %g\n", r.Name, len(r.Passes), r.UnitsPerPass, r.Unit, r.FailShare)
	for _, d := range endToEnd {
		if s, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-5s (q1 %.4f, q3 %.4f, n=%d)\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, len(s.Samples))
		}
	}
	if r.PerLayer == nil {
		return
	}
	names := make([]string, 0, len(r.PerLayer))
	for name, v := range r.PerLayer {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		d, _ := findMetric(perLayer, name)
		fmt.Fprintf(w, "  %-38s %16.4f %s\n", name, r.PerLayer[name], d.Unit)
	}
}

// harnessLine is the one JSON object the acceptance harness reads:
// every end-to-end metric with tracing off, every per-layer metric on a
// traced run.
func harnessLine(r *workloadResult, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		for _, d := range perLayer {
			metrics[d.Name] = value{r.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = value{r.Metrics[d.Name].Value, d.Unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
	return string(line)
}
