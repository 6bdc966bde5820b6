package pipeline

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
)

// The per-analyzer resume, merge and re-shard grids live in the reducer
// contract harness (internal/analysis/contract_test.go); these tests
// own the state-file container: metadata, chaining, validation, version
// skew and hostile bytes.

// encodePartial runs analyzers over ops and returns the serialized
// partial state.
func encodePartial(t testing.TB, label string, ops []*core.Op, parent *Partial, analyzers ...Analyzer) []byte {
	t.Helper()
	lv := NewLive(Config{Workers: 2}, analyzers...)
	if parent != nil {
		if err := parent.Resume(lv); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range ops {
		lv.Feed(op)
	}
	lv.Quiesce()
	// Join statistics accumulate across a resume chain, as the CLI does.
	join := core.JoinStats{Calls: int64(len(ops))}
	if parent != nil {
		total := parent.Join
		total.Merge(join)
		join = total
	}
	var buf bytes.Buffer
	if err := WritePartial(&buf, lv, label, join, parent); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunPartitionedEmptyPieces covers the chain's edges: no pieces at
// all is an empty run, and a piece with no operations (a trace file
// that held none) passes its parent's state through unchanged — for a
// sum, a sharded sequential reducer and a global one.
func TestRunPartitionedEmptyPieces(t *testing.T) {
	ops := genOps(t, 0.25)
	span := ops[len(ops)-1].T - ops[0].T
	render := func(pieces [][]*core.Op) string {
		sum, names := &SummaryAnalyzer{}, &NamesAnalyzer{}
		life := &BlockLifeAnalyzer{Phase: span / 2, Margin: span / 2}
		stats, err := RunPartitioned(Config{Workers: 2}, pieces, sum, life, names)
		if err != nil {
			t.Fatal(err)
		}
		rep := names.ReportAt(stats.MaxT)
		return fmt.Sprintf("%+v\n%+v\n%d/%d/%d n=%d\n%v/%v/%v", stats, *sum.Result,
			life.Result.Births, life.Result.Deaths, life.Result.EndSurplus, life.Result.Lifetimes.N(),
			rep.CreatedAndDeleted, rep.SizeAccuracy, rep.LifeAccuracy)
	}
	if got, want := render(nil), render([][]*core.Op{nil}); got != want {
		t.Errorf("no pieces:\n%s\none empty piece:\n%s", got, want)
	}
	mid := len(ops) / 2
	want := render([][]*core.Op{ops})
	if got := render([][]*core.Op{nil, ops[:mid], nil, ops[mid:], nil}); got != want {
		t.Errorf("empty pieces changed the result:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// everyKind is one analyzer of every reducer kind (two run detectors,
// as Table 3 runs them) over a stream of the given span.
func everyKind(span float64) []Analyzer {
	return append(newAnalyzerSet(span).analyzers(), &NamesAnalyzer{})
}

// quiesced feeds ops through a two-shard Live over analyzers and
// quiesces it.
func quiesced(ops []*core.Op, analyzers ...Analyzer) *Live {
	lv := NewLive(Config{Workers: 2}, analyzers...)
	for _, op := range ops {
		lv.Feed(op)
	}
	lv.Quiesce()
	return lv
}

// TestWritePartialIsCanonical: one quiesced Live written again and again
// gives the same bytes — map entries, the router's bindings included, go
// out in spelling order, never in Go's randomized iteration order.
func TestWritePartialIsCanonical(t *testing.T) {
	ops := genOps(t, 0.25)
	lv := quiesced(ops, everyKind(ops[len(ops)-1].T-ops[0].T)...)
	if len(lv.rt.names) < 3 {
		t.Fatalf("stream binds only %d names", len(lv.rt.names))
	}
	write := func() []byte {
		var buf bytes.Buffer
		if err := WritePartial(&buf, lv, "all", core.JoinStats{}, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := write()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(write(), first) {
			t.Fatalf("write %d of the same state differs from the first", i+2)
		}
	}
}

// TestParsePartialRejectsBadMeta: metadata that parses but cannot be
// true — a negative op count, a parent digest of the wrong length — is
// corrupt.
func TestParsePartialRejectsBadMeta(t *testing.T) {
	for name, tc := range map[string]struct {
		ops    int64
		parent []byte
		want   string
	}{
		"negative ops":  {-1, nil, "claims -1 ops"},
		"short parent":  {1, make([]byte, sha256.Size-1), "parent digest is 31 bytes"},
		"parent intact": {1, make([]byte, sha256.Size), ""},
	} {
		e := state.NewEncoder()
		e.Section(metaSection)
		e.String("summary")
		e.Varint(tc.ops)
		e.F64(0) // MinT
		e.F64(1) // MaxT
		for i := 0; i < 5; i++ {
			e.Varint(0) // join statistics
		}
		e.Bytes(tc.parent)
		var buf bytes.Buffer
		if err := e.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := ParsePartial(buf.Bytes())
		if tc.want == "" {
			if err != nil || len(p.ParentDigest) != sha256.Size {
				t.Errorf("%s: %v", name, err)
			}
		} else if !errors.Is(err, state.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an ErrCorrupt naming %q", name, err, tc.want)
		}
	}
}

func TestWritePartialRequiresQuiescedLive(t *testing.T) {
	lv := NewLive(Config{Workers: 1}, &SummaryAnalyzer{})
	defer lv.Abort()
	var buf bytes.Buffer
	if err := WritePartial(&buf, lv, "summary", core.JoinStats{}, nil); err == nil {
		t.Fatal("WritePartial accepted a running Live")
	}
}

func TestResumeValidation(t *testing.T) {
	ops := genOps(t, 0.25)
	data := encodePartial(t, "summary", ops, nil, &SummaryAnalyzer{})
	p, err := ReadPartial(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	// Resume into a Live that already ingested is rejected.
	lv := NewLive(Config{Workers: 1}, &SummaryAnalyzer{})
	lv.Feed(ops[0])
	if err := p.Resume(lv); err == nil {
		t.Fatal("Resume into a fed Live accepted")
	}
	lv.Abort()

	// Resume after Finish is rejected.
	lv2 := NewLive(Config{Workers: 1}, &SummaryAnalyzer{})
	lv2.Feed(ops[0])
	lv2.Finish()
	if err := p.Resume(lv2); err == nil {
		t.Fatal("Resume after Finish accepted")
	}

	// Decoding into a different analysis fails with a structured error.
	lv3 := NewLive(Config{Workers: 1}, &HierarchyAnalyzer{Warmup: 600})
	err = p.Resume(lv3)
	lv3.Abort()
	if err == nil || !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("cross-analysis resume: %v", err)
	}
}

func TestMergePartialsValidation(t *testing.T) {
	ops := genOps(t, 0.25)
	mid := len(ops) / 2
	mk := func(label string, ops []*core.Op, parent *Partial, analyzers ...Analyzer) *Partial {
		p, err := ReadPartial(bytes.NewReader(encodePartial(t, label, ops, parent, analyzers...)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, _, err := MergePartials([]Analyzer{&SummaryAnalyzer{}}, nil); err == nil {
		t.Fatal("empty merge accepted")
	}

	// Sequential analyzers refuse independent merges.
	a := mk("hierarchy", ops[:mid], nil, &HierarchyAnalyzer{Warmup: 600})
	b := mk("hierarchy", ops[mid:], nil, &HierarchyAnalyzer{Warmup: 600})
	_, _, err := MergePartials([]Analyzer{&HierarchyAnalyzer{Warmup: 600}}, []*Partial{a, b})
	if err == nil || !strings.Contains(err.Error(), "chain the pieces") {
		t.Fatalf("independent merge of sequential analysis: %v", err)
	}

	// A chain with its first link missing is rejected.
	chained := mk("hierarchy", ops[mid:], a, &HierarchyAnalyzer{Warmup: 600})
	_, _, err = MergePartials([]Analyzer{&HierarchyAnalyzer{Warmup: 600}}, []*Partial{chained})
	if err == nil || !strings.Contains(err.Error(), "chained states") {
		t.Fatalf("headless chain: %v", err)
	}

	// A valid chain renders from the last link.
	sum1 := mk("summary", ops[:mid], nil, &SummaryAnalyzer{})
	sum2 := mk("summary", ops[mid:], sum1, &SummaryAnalyzer{})
	final := &SummaryAnalyzer{}
	stats, join, err := MergePartials([]Analyzer{final}, []*Partial{sum1, sum2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops != int64(len(ops)) {
		t.Fatalf("chained stats.Ops = %d, want %d", stats.Ops, len(ops))
	}
	if join.Calls != int64(len(ops)) {
		t.Fatalf("chained join.Calls = %d, want %d", join.Calls, len(ops))
	}

	ref := &SummaryAnalyzer{}
	RunSlice(Config{Workers: 1}, ops, ref)
	if *final.Result != *ref.Result {
		t.Fatalf("chained merge differs:\n got %+v\nwant %+v", *final.Result, *ref.Result)
	}
}

// TestVersionSkewThroughPartial checks the CLI-visible failure mode: a
// state file from a future format version is rejected with an error
// naming both versions.
func TestVersionSkewThroughPartial(t *testing.T) {
	ops := genOps(t, 0.25)
	data := encodePartial(t, "summary", ops, nil, &SummaryAnalyzer{})
	future := append([]byte(nil), data...)
	future[8] = state.Version + 1 // version field follows the 8-byte magic, LE
	future[9] = 0
	_, err := ReadPartial(bytes.NewReader(future))
	var ve *state.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("future version: %v", err)
	}
	if ve.Got != state.Version+1 || ve.Supported != state.Version {
		t.Fatalf("VersionError = %+v", ve)
	}
	for _, sub := range []string{fmt.Sprint(ve.Got), fmt.Sprint(ve.Supported)} {
		if !strings.Contains(ve.Error(), sub) {
			t.Fatalf("message %q does not name version %s", ve.Error(), sub)
		}
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus for
// FuzzStateDecode when NFSSTATE_WRITE_CORPUS=1 is set — real state
// files plus characteristic hostile mutations, so CI's fuzz smoke
// starts from meaningful coverage:
//
//	NFSSTATE_WRITE_CORPUS=1 go test ./internal/pipeline -run TestWriteFuzzCorpus
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("NFSSTATE_WRITE_CORPUS") != "1" {
		t.Skip("set NFSSTATE_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzStateDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ops := genOps(t, 0.1)
	summary := encodePartial(t, "summary", ops, nil, &SummaryAnalyzer{})
	names := encodePartial(t, "names", ops, nil, &NamesAnalyzer{})
	truncated := summary[:len(summary)*2/3]
	flipped := append([]byte(nil), summary...)
	flipped[len(flipped)/2] ^= 0x01
	seeds := map[string][]byte{
		"seed-summary":   summary,
		"seed-names":     names,
		"seed-truncated": truncated,
		"seed-bitflip":   flipped,
		"seed-magic":     []byte("nfsstate"),
	}
	for name, data := range seeds {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzStateDecode feeds hostile bytes through the full partial-state
// read path: whatever the mutation — truncation, bit flips, hostile
// counts, fake dictionaries — the decoder must return an error wrapping
// state.ErrCorrupt (or a *state.VersionError), never panic, and never
// silently fold garbage into an analyzer.
func FuzzStateDecode(f *testing.F) {
	ops := genOps(f, 0.1)
	f.Add(encodePartial(f, "summary", ops, nil, &SummaryAnalyzer{}))
	f.Add(encodePartial(f, "names", ops, nil, &NamesAnalyzer{}))
	f.Add(encodePartial(f, "blocklife", ops, nil,
		&BlockLifeAnalyzer{Start: 0, Phase: 3600, Margin: 3600}))
	f.Add([]byte("nfsstate"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPartial(bytes.NewReader(data))
		if err != nil {
			var ve *state.VersionError
			if !errors.Is(err, state.ErrCorrupt) && !errors.As(err, &ve) {
				t.Fatalf("unstructured error: %v", err)
			}
			return
		}
		// Structurally valid: resuming into analyzers must either work
		// or fail structurally — the checksum has passed, so semantic
		// validation carries the rest.
		lv := NewLive(Config{Workers: 1}, &SummaryAnalyzer{})
		err = p.Resume(lv)
		lv.Abort()
		if err != nil && !errors.Is(err, state.ErrCorrupt) {
			t.Fatalf("unstructured resume error: %v", err)
		}
	})
}
