// nfsanalyze runs one of the paper's analyses over a trace set: one or
// more trace files (text or binary format, gzip-transparent, all
// auto-detected), given as -i and/or positional arguments that may be
// files, glob patterns, or directories. Multiple files are k-way
// merged by timestamp, so a multi-day capture split into daily files
// analyzes in one run.
//
// Records stream through the sharded pipeline: each file is decoded by
// -decoders parallel goroutines, calls and replies are joined
// incrementally, and the analysis reducers run across -workers shards.
// Memory depends on the reducer, not the record count: summary,
// hierarchy, and names hold per-file or constant-size state, blocklife
// holds live-block state, while runs and reorder accumulate one entry
// per data access (run detection needs each file's full access list).
//
// Every analysis can also run distributed. -partial serializes the
// reducers' mid-stream state to a file instead of rendering tables;
// -resume seeds a run from such a file (checkpoint/resume, or chaining
// consecutive trace pieces); -merge combines state files and renders
// the tables, byte-identical to one run over everything; -coordinator
// does all of that in one command, cutting the trace set's files into
// -workers pieces and running each piece on a -remote nfsworker or,
// where there is none, in this process. Order-dependent analyses
// (blocklife, hierarchy, names) distribute as a resume chain; the rest
// merge independently computed states.
//
// Usage:
//
//	nfsanalyze -i campus.trace -analysis summary
//	nfsanalyze -i campus.trace -analysis runs -window 10
//	nfsanalyze -i campus.trace -analysis blocklife -start 118800 -phase 86400 -margin 86400
//	nfsanalyze -analysis summary 'week/day*.trace.gz'
//	nfsanalyze -analysis hourly traces/
//	nfsanalyze -i campus.trace -analysis summary -workers 8 -decoders 4
//	nfsanalyze -i day1.trace -analysis summary -partial day1.state
//	nfsanalyze -analysis summary -merge day1.state day2.state
//	nfsanalyze -analysis summary -coordinator -workers 8 traces/
//	nfsanalyze -analysis summary -coordinator -remote host1:7000,host2:7000 traces/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != errUsage {
			fmt.Fprintln(os.Stderr, "nfsanalyze:", err)
		}
		os.Exit(1)
	}
}

// errUsage signals a flag-parse failure the FlagSet already reported
// to stderr, so main exits nonzero without printing it again.
var errUsage = errors.New("usage")

// The analyzer set, the renderer and the ingest loop for each -analysis
// kind live in internal/jobspec, shared with cmd/nfsworker so a remote
// worker runs exactly what this process would.

// run is main's logic behind injectable streams, so the cmd tree is
// testable end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nfsanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input trace (default stdin; positional args add files, globs, directories)")
	kind := fs.String("analysis", "summary",
		"analysis: summary, runs, blocklife, hourly, names, hierarchy, reorder")
	window := fs.Float64("window", 10, "reorder window in ms (runs)")
	jump := fs.Int64("k", 10, "jump tolerance in blocks (runs)")
	start := fs.Float64("start", 0, "blocklife phase-1 start (seconds)")
	phase := fs.Float64("phase", workload.Day, "blocklife phase-1 length (seconds)")
	margin := fs.Float64("margin", workload.Day, "blocklife end margin (seconds)")
	workers := fs.Int("workers", 0, "pipeline shard count; with -coordinator, the number of pieces the input files are cut into (0 = one per CPU, or two per -remote worker)")
	decoders := fs.Int("decoders", 0, "parallel decode goroutines per input file (0 = one per CPU)")
	partialOut := fs.String("partial", "", "serialize partial analysis state to this file instead of rendering tables")
	resumeIn := fs.String("resume", "", "seed the analysis from this state file before reading input")
	mergeMode := fs.Bool("merge", false, "inputs are state files: merge them and render the tables")
	coordMode := fs.Bool("coordinator", false, "cut the input files into -workers pieces, analyze each piece on a -remote worker or else in this process, merge the states, render")
	remote := fs.String("remote", "", "comma-separated nfsworker addresses; with -coordinator, dispatch pieces to them over TCP (a piece the pool cannot finish runs in this process)")
	workerTimeout := fs.Duration("worker-timeout", 10*time.Minute, "deadline per piece attempt in coordinator mode; a remote attempt past it is abandoned and re-dispatched, an in-process piece past it fails the run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errUsage
	}
	// Register the allocation snapshot before the CPU profile starts:
	// defers run LIFO, so the CPU profile stops before the forced GC
	// and profile serialization, keeping them out of its samples.
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			// The allocation profile is cumulative, so one snapshot at
			// exit covers the whole run.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "nfsanalyze: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	spec := jobspec.Spec{Kind: *kind, Window: *window, Jump: *jump, Start: *start, Phase: *phase, Margin: *margin}
	set, err := jobspec.Build(spec)
	if err != nil {
		return err
	}
	inputs := fs.Args()
	if *in != "" {
		inputs = append([]string{*in}, inputs...)
	}

	if *mergeMode {
		if *partialOut != "" || *resumeIn != "" || *coordMode {
			return fmt.Errorf("-merge cannot be combined with -partial, -resume, or -coordinator")
		}
		if len(inputs) == 0 {
			return fmt.Errorf("-merge needs state files as inputs")
		}
		paths, err := pipeline.ExpandInputs(inputs)
		if err != nil {
			return err
		}
		return runMerge(set, paths, stdout)
	}
	if *remote != "" && !*coordMode {
		return fmt.Errorf("-remote requires -coordinator")
	}
	if *coordMode {
		if *partialOut != "" || *resumeIn != "" {
			return fmt.Errorf("-coordinator cannot be combined with -partial or -resume")
		}
		if len(inputs) == 0 {
			return fmt.Errorf("-coordinator needs file inputs, not stdin")
		}
		paths, err := pipeline.ExpandInputs(inputs)
		if err != nil {
			return err
		}
		cc := coordConfig{
			set:      set,
			paths:    paths,
			workers:  *workers,
			decoders: *decoders,
			timeout:  *workerTimeout,
		}
		if *remote != "" {
			for _, addr := range strings.Split(*remote, ",") {
				addr = strings.TrimSpace(addr)
				if addr == "" {
					return fmt.Errorf("-remote %q has an empty worker address", *remote)
				}
				cc.remote = append(cc.remote, addr)
			}
		}
		return runCoordinator(cc, stdout, stderr)
	}

	icfg := core.IngestConfig{Decoders: *decoders}
	var src core.RecordSource
	var ts *pipeline.TraceSet
	if len(inputs) == 0 {
		pr, err := core.NewParallelReader(os.Stdin, icfg)
		if err != nil {
			return err
		}
		defer pr.Stop()
		src = pr
	} else {
		paths, err := pipeline.ExpandInputs(inputs)
		if err != nil {
			return err
		}
		ts, err = pipeline.OpenTraceSet(paths, icfg)
		if err != nil {
			return err
		}
		defer ts.Close()
		src = ts
	}
	var resumed *pipeline.Partial
	if *resumeIn != "" {
		resumed, err = readPartialFile(*resumeIn, spec.Kind)
		if err != nil {
			return err
		}
	}
	lv, join, err := set.Ingest(context.Background(), src, *workers, resumed)
	if err != nil {
		return err
	}
	if *partialOut != "" {
		blob, err := set.State(lv, join, resumed)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*partialOut, blob, 0o666); err != nil {
			return err
		}
	} else {
		stats := lv.Finish()
		if stats.Ops == 0 {
			return fmt.Errorf("no operations in trace")
		}
		set.Render(stdout, stats, join)
	}

	if ts != nil && len(ts.Stats()) > 1 {
		for _, st := range ts.Stats() {
			fmt.Fprintf(stderr, "nfsanalyze: %s: %d records\n", st.Path, st.Records)
		}
	}
	return nil
}

// readPartialFile reads one state file and checks it holds the analysis
// the caller is rendering.
func readPartialFile(path, kind string) (*pipeline.Partial, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := jobspec.DecodeState(kind, data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// runMerge combines state files and renders the tables.
func runMerge(set *jobspec.Set, paths []string, stdout io.Writer) error {
	partials := make([]*pipeline.Partial, 0, len(paths))
	for _, path := range paths {
		p, err := readPartialFile(path, set.Spec.Kind)
		if err != nil {
			return err
		}
		partials = append(partials, p)
	}
	return renderMerged(set, partials, stdout)
}

// renderMerged is the tail -merge and -coordinator share: fold the
// partial states into the set's analyzers and render the tables.
func renderMerged(set *jobspec.Set, partials []*pipeline.Partial, stdout io.Writer) error {
	stats, join, err := pipeline.MergePartials(set.Analyzers, partials)
	if err != nil {
		return err
	}
	set.Render(stdout, stats, join)
	return nil
}
