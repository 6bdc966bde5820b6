// nfsconvert converts and merges trace files. Inputs may be files,
// glob patterns, or directories; each file may be in the text or
// binary format (auto-detected, gzip-transparent) and is decoded on a
// read-ahead goroutine of its own. All inputs are k-way merged by
// timestamp — the CAMPUS deployment captured one trace per virtual
// disk array, and cross-array analyses need them interleaved.
//
// Usage:
//
//	nfsconvert -o merged.trace array1.trace array2.trace ...
//	nfsconvert -o week.trace 'arrays/*.btrace.gz'
//	nfsconvert -binary -o week.btrace week.trace      # text -> binary
//	nfsconvert -o week.trace week.btrace              # binary -> text
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/pipeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != errUsage {
			fmt.Fprintln(os.Stderr, "nfsconvert:", err)
		}
		os.Exit(1)
	}
}

// errUsage signals a flag-parse failure the FlagSet already reported
// to stderr, so main exits nonzero without printing it again.
var errUsage = errors.New("usage")

// run is main's logic behind injectable streams, so the cmd tree is
// testable end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nfsconvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	asBinary := fs.Bool("binary", false, "write the compact binary format")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errUsage
	}
	if fs.NArg() == 0 {
		return errors.New("no input files")
	}

	paths, err := pipeline.ExpandInputs(fs.Args())
	if err != nil {
		return err
	}
	set, err := pipeline.OpenTraceSet(paths, core.IngestConfig{})
	if err != nil {
		return err
	}
	defer set.Close()

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tw := core.NewFormatWriter(w, *asBinary)

	var n int64
	for {
		rec, err := set.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := tw.Write(rec); err != nil {
			return err
		}
		n++
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, st := range set.Stats() {
		fmt.Fprintf(stderr, "nfsconvert: %s: %d records\n", st.Path, st.Records)
	}
	fmt.Fprintf(stderr, "nfsconvert: merged %d inputs into %d records\n", len(paths), n)
	return nil
}
