package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro"
	"repro/internal/core"
	"repro/internal/pipeline"
)

var allKinds = []string{"summary", "runs", "blocklife", "hourly", "names", "hierarchy", "reorder"}

var seqKinds = map[string]bool{"blocklife": true, "hierarchy": true, "names": true}

func TestBuildEveryKind(t *testing.T) {
	for _, kind := range allKinds {
		set, err := Build(Default(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(set.Analyzers) == 0 || set.Render == nil {
			t.Fatalf("%s: incomplete set", kind)
		}
		if set.Sequential() != seqKinds[kind] {
			t.Fatalf("%s: Sequential() = %v, want %v", kind, set.Sequential(), seqKinds[kind])
		}
	}
}

func TestBuildUnknownKind(t *testing.T) {
	if _, err := Build(Spec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestDefaultCarriesKind(t *testing.T) {
	s := Default("runs")
	if s.Kind != "runs" || s.Window != 10 || s.Jump != 10 {
		t.Fatalf("defaults: %+v", s)
	}
}

func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	return writeTraceDays(t, dir, 0.25)
}

func writeTraceDays(t *testing.T, dir string, days float64) string {
	t.Helper()
	scale := repro.SmallScale()
	scale.Days = days
	records := repro.GenerateCampusRecords(scale)
	var buf bytes.Buffer
	if err := repro.WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "campus.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFilesResumeChains runs a chained analysis in two RunFiles
// calls and checks the child state records the parent's digest — the
// linkage MergePartials later validates.
func TestRunFilesResumeChains(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir)
	spec := Default("names")
	first, err := RunFiles(context.Background(), spec, []string{path}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := pipeline.ReadPartial(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunFiles(context.Background(), spec, []string{path}, 1, parent)
	if err != nil {
		t.Fatal(err)
	}
	child, err := pipeline.ReadPartial(bytes.NewReader(second))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(child.ParentDigest, parent.Digest) {
		t.Fatal("resumed state does not link to its parent")
	}
}

// TestRenderEveryKind renders every analysis two ways on a generated
// trace — ingested and finished directly at two shards, and decoded from
// the state RunTask returns for the same file (a loadable state file
// with the right label and no parent link) — and checks each prints its
// table and that the two renderings are byte-identical, which is the
// promise every nfsanalyze mode rests on.
func TestRenderEveryKind(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	for _, tc := range []struct{ kind, want string }{
		{"summary", "join: "},
		{"runs", "runs="},
		{"blocklife", "births="},
		{"hourly", "peak hours:"},
		{"names", "lifetime prediction"},
		{"hierarchy", "hierarchy coverage after 10min warmup: "},
		{"reorder", "window    50ms: "},
	} {
		spec := Default(tc.kind)
		direct, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := pipeline.OpenTraceSet([]string{path}, core.IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		lv, join, err := direct.Ingest(context.Background(), ts, 2, nil)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: ingest: %v", tc.kind, err)
		}
		var want bytes.Buffer
		direct.Render(&want, lv.Finish(), join)
		if !strings.Contains(want.String(), tc.want) {
			t.Fatalf("%s: rendering lacks %q:\n%s", tc.kind, tc.want, want.String())
		}

		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := RunTask(context.Background(), specJSON, nil, []string{path})
		if err != nil {
			t.Fatalf("%s: RunTask: %v", tc.kind, err)
		}
		p, err := DecodeState(tc.kind, blob)
		if err != nil {
			t.Fatalf("%s: DecodeState: %v", tc.kind, err)
		}
		if len(p.ParentDigest) != 0 {
			t.Fatalf("%s: unresumed state has a parent digest", tc.kind)
		}
		merged, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		stats, mjoin, err := pipeline.MergePartials(merged.Analyzers, []*pipeline.Partial{p})
		if err != nil {
			t.Fatalf("%s: merge: %v", tc.kind, err)
		}
		var got bytes.Buffer
		merged.Render(&got, stats, mjoin)
		if got.String() != want.String() {
			t.Fatalf("%s: rendering from state differs:\n--- direct ---\n%s--- from state ---\n%s", tc.kind, want.String(), got.String())
		}
	}
}

// TestDecodeStateDoesNotCopyTheState: the coordinator decodes every
// piece's state from the bytes it received. Parsing works on views into
// those bytes, so decoding a state whose size is its access lists
// allocates less than one copy of it — reading it through an io.Reader
// used to allocate two.
func TestDecodeStateDoesNotCopyTheState(t *testing.T) {
	path := writeTraceDays(t, t.TempDir(), 1)
	for _, kind := range []string{"runs", "reorder"} {
		specJSON, _ := json.Marshal(Default(kind))
		blob, err := RunTask(context.Background(), specJSON, nil, []string{path})
		if err != nil {
			t.Fatal(err)
		}
		// The least of a few tries, so a background allocation cannot
		// fail the test.
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := DecodeState(kind, blob); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= uint64(len(blob)) {
			t.Errorf("%s: DecodeState allocated %d bytes for a %d-byte state", kind, least, len(blob))
		}
	}
}

// TestRunTaskRejectsBadBytes covers what arrives over the wire: the spec
// and the parent state are bytes from another process.
func TestRunTaskRejectsBadBytes(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	ctx := context.Background()
	names, _ := json.Marshal(Default("names"))
	summary, _ := json.Marshal(Default("summary"))
	state, err := RunTask(ctx, summary, nil, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		spec, parent []byte
		want         string
	}{
		{"spec not JSON", []byte("{"), nil, "decoding analysis spec"},
		{"parent truncated", summary, state[:len(state)/2], "decoding parent state"},
		{"parent of another analysis", names, state, `holds a "summary" analysis, not "names"`},
	} {
		_, err := RunTask(ctx, tc.spec, tc.parent, []string{path})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestRunFilesErrors(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir)

	// Unknown kind surfaces from Build.
	if _, err := RunFiles(context.Background(), Spec{Kind: "nope"}, []string{path}, 1, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}

	// An empty trace has no operations to report.
	empty := filepath.Join(dir, "empty.trace")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFiles(context.Background(), Default("summary"), []string{empty}, 1, nil); err == nil {
		t.Fatal("empty assignment produced a state")
	}

	// Cancellation aborts mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFiles(ctx, Default("summary"), []string{path}, 1, nil); err == nil {
		t.Fatal("cancelled context did not abort")
	}
}

// cutReader yields the first n bytes of data and then fails the way a
// severed connection does.
func cutReader(data []byte, n int) io.Reader {
	return io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(io.ErrUnexpectedEOF))
}

// TestRunStreamOverReaders: the reader form is the path form — a piece
// read from streams that trickle (one byte per Read) renders what the
// same bytes render from a file, with and without a parent state — and a
// stream cut anywhere fails the run instead of yielding a state for the
// prefix.
func TestRunStreamOverReaders(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kind := range []string{"runs", "blocklife"} {
		spec := Default(kind)
		specJSON, _ := json.Marshal(spec)
		var parent []byte
		if seqKinds[kind] {
			if parent, err = RunTask(ctx, specJSON, nil, []string{path}); err != nil {
				t.Fatal(err)
			}
		}
		want, err := RunTask(ctx, specJSON, parent, []string{path})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunStream(ctx, specJSON, parent, []io.Reader{iotest.OneByteReader(bytes.NewReader(data))})
		if err != nil {
			t.Fatalf("%s: RunStream: %v", kind, err)
		}
		if a, b := decodeMeta(t, kind, got), decodeMeta(t, kind, want); a != b {
			t.Errorf("%s: streamed state %s, state from the file %s", kind, a, b)
		}
	}

	// A cut between two lines is the dangerous one: every byte that did
	// arrive parses. Inside a line the parser may object first.
	summary, _ := json.Marshal(Default("summary"))
	boundary := bytes.IndexByte(data[len(data)/2:], '\n') + len(data)/2 + 1
	for _, n := range []int{0, 1, boundary, boundary + 5, len(data) - 1} {
		state, err := RunStream(ctx, summary, nil, []io.Reader{cutReader(data, n)})
		if err == nil || state != nil {
			t.Errorf("stream cut after %d of %d bytes produced a state (err %v)", n, len(data), err)
		}
		if (n == 0 || n == boundary) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stream cut after %d of %d bytes: err = %v, want io.ErrUnexpectedEOF", n, len(data), err)
		}
	}
	if _, err := RunStream(ctx, []byte("{"), nil, []io.Reader{bytes.NewReader(data)}); err == nil {
		t.Error("spec that is not JSON accepted")
	}
	if _, err := RunReaders(ctx, Default("summary"), nil, nil); err == nil {
		t.Error("a piece of no files produced a state")
	}
}

// decodeMeta summarizes a state by what a merge reads from it first.
func decodeMeta(t *testing.T, kind string, state []byte) string {
	t.Helper()
	p, err := DecodeState(kind, state)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %+v %+v in %d bytes", p.Label, p.Stats, p.Join, len(state))
}
