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
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro"
	"repro/internal/core"
	"repro/internal/pipeline"
)

var allKinds = Kinds()

var seqKinds = map[string]bool{"blocklife": true, "hierarchy": true, "names": true}

func TestBuildEveryKind(t *testing.T) {
	for _, kind := range allKinds {
		set, err := Build(Default(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(set.Analyzers) != 1 {
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

// TestStateLinksResumedRun runs a chained analysis the way -partial
// and -resume do, in two Ingest/State passes, and checks the child state
// records the digest of the state it resumed from — the linkage
// MergePartials later validates.
func TestStateLinksResumedRun(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	set, err := Build(Default("names"))
	if err != nil {
		t.Fatal(err)
	}
	pass := func(resumed *pipeline.Partial) *pipeline.Partial {
		t.Helper()
		ts, err := pipeline.OpenTraceSet([]string{path}, core.IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		lv, join, err := set.Ingest(context.Background(), ts, 1, resumed)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := set.State(lv, join, resumed)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodeState("names", blob)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	first := pass(nil)
	set, err = Build(Default("names"))
	if err != nil {
		t.Fatal(err)
	}
	second := pass(first)
	if len(first.ParentDigest) != 0 || !bytes.Equal(second.ParentDigest, first.Digest) {
		t.Fatal("resumed state does not link to the state it resumed from")
	}
}

// TestRenderEveryKind renders every analysis two ways on a generated
// trace — ingested and finished directly at two shards, and decoded from
// the state RunTask returns for the same file (a loadable state file
// with the right label and no parent link) — and checks each prints its
// table and that the two renderings are byte-identical, which is the
// promise every nfsanalyze mode rests on. Exactly the JSONKinds have a
// JSON form.
func TestRenderEveryKind(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	wants := map[string]string{
		"summary":   "join: ",
		"runs":      "runs=",
		"blocklife": "births=",
		"hourly":    "peak hours:",
		"names":     "lifetime prediction",
		"hierarchy": "hierarchy coverage after 10min warmup: ",
		"reorder":   "window    50ms: ",
		"peak":      "file instances in hours 9-17: ",
		"mailbox":   "mailbox bytes ",
	}
	for _, kind := range allKinds {
		tc := struct{ kind, want string }{kind, wants[kind]}
		if tc.want == "" {
			t.Fatalf("%s: no expected text", kind)
		}
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
		if hasJSON := direct.JSON(direct.Analyzers[0]) != nil; hasJSON != slices.Contains(JSONKinds(), kind) {
			t.Fatalf("%s: JSON form %v, listed in JSONKinds %v", kind, hasJSON, !hasJSON)
		}
		if !strings.Contains(want.String(), tc.want) {
			t.Fatalf("%s: rendering lacks %q:\n%s", tc.kind, tc.want, want.String())
		}

		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := RunTask(context.Background(), specJSON, []string{path})
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
		blob, err := RunTask(context.Background(), specJSON, []string{path})
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
// is bytes from another process.
func TestRunTaskRejectsBadBytes(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	_, err := RunTask(context.Background(), []byte("{"), []string{path})
	if err == nil || !strings.Contains(err.Error(), "decoding analysis spec") {
		t.Errorf("spec not JSON: got %v, want an error mentioning %q", err, "decoding analysis spec")
	}
}

// TestDecodeStateRejectsBadBytes: a state file is bytes from another
// process too. A cut one and one of another analysis are refused by
// DecodeState, and a Set cannot resume from a state of another kind.
func TestDecodeStateRejectsBadBytes(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	summary, _ := json.Marshal(Default("summary"))
	state, err := RunTask(context.Background(), summary, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeState("summary", state[:len(state)/2]); err == nil {
		t.Error("truncated state accepted")
	}
	if _, err := DecodeState("names", state); err == nil || !strings.Contains(err.Error(), `holds a "summary" analysis, not "names"`) {
		t.Errorf("state of another analysis: got %v", err)
	}
	p, err := DecodeState("summary", state)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(Default("names"))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := pipeline.OpenTraceSet([]string{path}, core.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if _, _, err := set.Ingest(context.Background(), ts, 1, p); err == nil {
		t.Error("names resumed from a summary state")
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
// same bytes render from a file — and a stream cut anywhere fails the
// run instead of yielding a state for the prefix.
func TestRunStreamOverReaders(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, kind := range []string{"runs", "blocklife"} {
		specJSON, _ := json.Marshal(Default(kind))
		want, err := RunTask(ctx, specJSON, []string{path})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunStream(ctx, specJSON, []io.Reader{iotest.OneByteReader(bytes.NewReader(data))})
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
		state, err := RunStream(ctx, summary, []io.Reader{cutReader(data, n)})
		if err == nil || state != nil {
			t.Errorf("stream cut after %d of %d bytes produced a state (err %v)", n, len(data), err)
		}
		if (n == 0 || n == boundary) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("stream cut after %d of %d bytes: err = %v, want io.ErrUnexpectedEOF", n, len(data), err)
		}
	}
	if _, err := RunStream(ctx, []byte("{"), []io.Reader{bytes.NewReader(data)}); err == nil {
		t.Error("spec that is not JSON accepted")
	}
	if _, err := RunStream(ctx, summary, nil); err == nil {
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
