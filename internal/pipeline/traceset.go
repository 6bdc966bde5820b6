package pipeline

// Trace sets: the paper's deployments produced one capture per day and
// per disk array, so a real analysis run starts from a directory of
// files, not one file. A TraceSet opens many trace files (text or
// binary, gzip-transparent), decodes each on its own read-ahead
// goroutine, and k-way merges the record streams back into global time
// order — so a multi-day EECS- or CAMPUS-style trace set feeds
// pipeline.Run in one pass, with files decoding concurrently.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

// ExpandInputs resolves command-line input arguments into trace file
// paths: a glob pattern expands (matching nothing is an error), a
// directory contributes its non-hidden regular files in sorted order,
// and a plain file path passes through.
func ExpandInputs(args []string) ([]string, error) {
	var paths []string
	addDir := func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		n := 0
		for _, e := range entries {
			if e.IsDir() || strings.HasPrefix(e.Name(), ".") {
				continue
			}
			paths = append(paths, filepath.Join(dir, e.Name()))
			n++
		}
		if n == 0 {
			return fmt.Errorf("directory %s holds no trace files", dir)
		}
		return nil
	}
	add := func(path string) error {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return addDir(path)
		}
		paths = append(paths, path)
		return nil
	}
	for _, arg := range args {
		if strings.ContainsAny(arg, "*?[") {
			matches, err := filepath.Glob(arg)
			if err != nil {
				return nil, fmt.Errorf("bad pattern %q: %w", arg, err)
			}
			if len(matches) == 0 {
				return nil, fmt.Errorf("no files match %q", arg)
			}
			sort.Strings(matches)
			for _, m := range matches {
				if err := add(m); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := add(arg); err != nil {
			return nil, err
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no input files")
	}
	return paths, nil
}

// FileStat reports one file's contribution to a trace-set run.
type FileStat struct {
	Path    string
	Records int64
}

// fileSource counts records per file and tags errors with the path, so
// a bad file in a multi-week set is identifiable.
type fileSource struct {
	path string
	ra   *core.ReadAhead
	n    int64
}

func (f *fileSource) Next() (*core.Record, error) {
	rec, err := f.ra.Next()
	if err == nil {
		f.n++
		return rec, nil
	}
	if err != io.EOF {
		return nil, fmt.Errorf("%s: %w", f.path, err)
	}
	return nil, err
}

// TraceSet is a core.RecordSource over one or more trace files. Each
// file gets its own read-ahead; multiple files are k-way merged by
// timestamp. Close releases the read-ahead goroutines and file handles
// (safe mid-stream, e.g. after a pipeline error).
type TraceSet struct {
	files   []*os.File
	sources []*fileSource
	src     core.RecordSource
}

// OpenTraceSet opens every path. The empty cfg remains only because the
// benchmark's layer tracer (tools/perf/layers) passes one, and goes when
// a benchmark change drops it.
func OpenTraceSet(paths []string, _ core.IngestConfig) (*TraceSet, error) {
	files := make([]*os.File, 0, len(paths))
	inputs := make([]io.Reader, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			closeFiles(files)
			return nil, err
		}
		files = append(files, f)
		inputs = append(inputs, f)
	}
	ts, err := OpenTraceReaders(inputs)
	if err != nil {
		closeFiles(files)
		return nil, err
	}
	ts.files = files
	return ts, nil
}

// OpenTraceReaders is OpenTraceSet over streams that are already open —
// a piece arriving over a connection, say — in the order given. An
// input with a Name method (an *os.File has one) is called that in
// errors and Stats. Opening sniffs each input's format, so it blocks
// until every input has produced its first bytes; the caller still owns
// the inputs, and Close does not close them.
func OpenTraceReaders(inputs []io.Reader) (*TraceSet, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("pipeline: empty trace set")
	}
	ts := &TraceSet{}
	for i, in := range inputs {
		name := fmt.Sprintf("input %d", i)
		if n, ok := in.(interface{ Name() string }); ok {
			name = n.Name()
		}
		ra, err := core.NewReadAhead(in)
		if err != nil {
			ts.Close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ts.sources = append(ts.sources, &fileSource{path: name, ra: ra})
	}
	if len(ts.sources) == 1 {
		ts.src = ts.sources[0]
	} else {
		srcs := make([]core.RecordSource, len(ts.sources))
		for i, s := range ts.sources {
			srcs[i] = s
		}
		ts.src = core.NewMerger(srcs...)
	}
	return ts, nil
}

// Next implements core.RecordSource over the merged set.
func (ts *TraceSet) Next() (*core.Record, error) { return ts.src.Next() }

// Recycle implements core.RecordRecycler: every file's read-ahead
// allocates from the shared core pool, so dead records go back there.
func (ts *TraceSet) Recycle(r *core.Record) { core.FreeRecord(r) }

// Stats reports per-file record counts, complete once Next returned
// io.EOF.
func (ts *TraceSet) Stats() []FileStat {
	stats := make([]FileStat, len(ts.sources))
	for i, s := range ts.sources {
		stats[i] = FileStat{Path: s.path, Records: s.n}
	}
	return stats
}

// Close stops every input's read-ahead and closes the files OpenTraceSet
// opened.
func (ts *TraceSet) Close() error {
	for _, s := range ts.sources {
		s.ra.Stop()
	}
	return closeFiles(ts.files)
}

func closeFiles(files []*os.File) error {
	var first error
	for _, f := range files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
