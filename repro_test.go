package repro

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// testScale is the shared traces' scale: Sunday + Monday so peak hours
// exist, and enough users for stable size distributions.
func testScale() Scale {
	s := SmallScale()
	s.Days = 2
	s.CampusUsers = 5
	return s
}

// Shared small traces: generated once per test binary.
var (
	genOnce  sync.Once
	campusTr *Trace
	eecsTr   *Trace

	opsOnce   sync.Once
	campusOps []*core.Op
	eecsOps   []*core.Op
)

func traces(t *testing.T) (*Trace, *Trace) {
	t.Helper()
	if testing.Short() {
		t.Skip("trace generation")
	}
	genOnce.Do(func() {
		campusTr = GenerateCampus(testScale())
		eecsTr = GenerateEECS(testScale())
	})
	return campusTr, eecsTr
}

// traceOps returns the operations of the shared traces, for the tests
// that look at one reducer over the raw stream.
func traceOps(t *testing.T) (campus, eecs []*core.Op) {
	t.Helper()
	if testing.Short() {
		t.Skip("trace generation")
	}
	opsOnce.Do(func() {
		campusOps, _ = replay(joined(testScale().campus, nil))
		eecsOps, _ = replay(joined(testScale().eecs, nil))
	})
	return campusOps, eecsOps
}

// replay collects the operations a feed produces: those a Trace's
// analyses see, in the order they see them.
func replay(feed opFeed) ([]*core.Op, core.JoinStats) {
	var ops []*core.Op
	join := feed(func(op *core.Op) { ops = append(ops, op) })
	return ops, join
}

// pulled is the feed of a record source, joined as nfsanalyze joins it.
func pulled(t *testing.T, src core.RecordSource) opFeed {
	return func(emit func(*core.Op)) core.JoinStats {
		j := pipeline.NewJoiner(src)
		for {
			op, err := j.Next()
			if err == io.EOF {
				return j.Stats()
			}
			if err != nil {
				t.Fatal(err)
			}
			emit(op)
		}
	}
}

func TestGenerateTraces(t *testing.T) {
	campus, eecs := traces(t)
	if campus.Stats.Ops < 5000 {
		t.Fatalf("campus ops %d", campus.Stats.Ops)
	}
	if eecs.Stats.Ops < 10000 {
		t.Fatalf("eecs ops %d", eecs.Stats.Ops)
	}
	if campus.Join.OrphanReplies != 0 || eecs.Join.OrphanReplies != 0 {
		t.Fatal("orphan replies in lossless traces")
	}
}

func TestTableOutputs(t *testing.T) {
	campus, eecs := traces(t)
	for name, fn := range map[string]func(*Trace, *Trace) string{
		"Table1": Table1, "Table2": Table2, "Table3": Table3,
		"Table4": Table4, "Table5": Table5,
		"Figure1": Figure1, "Figure2": Figure2, "Figure3": Figure3,
		"Figure4": Figure4, "Figure5": Figure5,
	} {
		out := fn(campus, eecs)
		if len(out) < 100 || !strings.Contains(out, "paper") {
			t.Errorf("%s output suspicious:\n%s", name, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	campus, eecs := traces(t)
	out := Table2(campus, eecs)
	if !strings.Contains(out, "Read/Write bytes ratio") {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestExperimentOutputs(t *testing.T) {
	campus, _ := traces(t)
	if out := ExpNfsiod(); !strings.Contains(out, "nfsiods") {
		t.Errorf("nfsiod: %s", out)
	}
	if out := ExpNames(campus); !strings.Contains(out, "lock") {
		t.Errorf("names: %s", out)
	}
	if out := ExpReadahead(); !strings.Contains(out, "speedup") {
		t.Errorf("readahead: %s", out)
	}
	if out := ExpHierarchy(campus); !strings.Contains(out, "coverage") {
		t.Errorf("hierarchy: %s", out)
	}
	if out := TopProcs(campus); !strings.Contains(out, "read") {
		t.Errorf("procs: %s", out)
	}
}

func TestExpLossSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation")
	}
	s := SmallScale()
	s.Days = 0.5
	out := ExpLoss(s)
	if !strings.Contains(out, "port drop rate") {
		t.Fatalf("loss: %s", out)
	}
}

func TestTraceRoundTripThroughTextFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation")
	}
	s := SmallScale()
	s.Days = 0.5
	records := GenerateCampusRecords(s)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	ops, join := replay(pulled(t, core.NewReader(&buf)))
	if len(ops) == 0 {
		t.Fatal("no ops after round trip")
	}
	// Joining the original records must agree with the round-tripped,
	// op for op. The text format keeps every field but rounds times to
	// the microsecond, and the joiner releases operations with equal
	// call times in completion order, so two calls that share a
	// microsecond may come back swapped. Both streams must be in
	// call-time order; with the direct one's times rounded as the text
	// rounds them, both are put in (call, reply, client, port) order
	// and compared.
	direct, directJoin := replay(joined(s.campus, nil))
	if join != directJoin {
		t.Fatalf("join stats %+v, direct %+v", join, directJoin)
	}
	if len(ops) != len(direct) {
		t.Fatalf("op counts differ: %d vs %d", len(ops), len(direct))
	}
	micros := func(x float64) float64 {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 6, 64), 64)
		return v
	}
	canonical := func(ops []*core.Op) []core.Op {
		out := make([]core.Op, len(ops))
		for i, op := range ops {
			out[i] = *op
			out[i].T, out[i].RT = micros(op.T), micros(op.RT)
		}
		if !slices.IsSortedFunc(ops, func(a, b *core.Op) int { return cmp.Compare(a.T, b.T) }) {
			t.Fatal("ops not in call-time order")
		}
		slices.SortStableFunc(out, func(a, b core.Op) int {
			if c := cmp.Compare(a.T, b.T); c != 0 {
				return c
			}
			if c := cmp.Compare(a.RT, b.RT); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Client, b.Client); c != 0 {
				return c
			}
			return cmp.Compare(a.Port, b.Port)
		})
		return out
	}
	got, want := canonical(ops), canonical(direct)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestAnonymizeRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation")
	}
	s := SmallScale()
	s.Days = 0.5 // a window in which users compose mail
	records := GenerateCampusRecords(s)
	raw := make([]core.Record, len(records))
	composers := 0
	for i, r := range records {
		raw[i] = *r
		if analysis.Categorize(r.Name) == analysis.CatComposer {
			composers++
		}
	}
	if composers == 0 {
		t.Fatal("the window has no composer files to anonymize")
	}
	// A name survives verbatim only when it is a table word, or is one
	// once stripped of its markers and extension.
	words := map[string]bool{}
	for _, f := range analysis.NameFeatures {
		if f.Kind == analysis.Exact {
			words[f.Text] = true
		}
	}
	tableWord := func(name string) bool {
		base := name
		for _, f := range analysis.NameFeatures {
			switch f.Kind {
			case analysis.Prefix:
				base = strings.TrimPrefix(base, f.Text)
			case analysis.Suffix:
				base = strings.TrimSuffix(base, f.Text)
			}
		}
		if i := strings.LastIndexByte(base, '.'); i > 0 {
			base = base[:i]
		}
		return words[name] || words[base]
	}
	Anonymize(records, 99)
	for i, r := range records {
		for _, pair := range [][2]string{{raw[i].Name, r.Name}, {raw[i].Name2, r.Name2}} {
			before, after := pair[0], pair[1]
			if before != "" && before == after && !tableWord(before) {
				t.Fatalf("raw name survived: %q", before)
			}
			if analysis.Categorize(after) != analysis.Categorize(before) {
				t.Fatalf("%q anonymized to %q: category %v, want %v",
					before, after, analysis.Categorize(after), analysis.Categorize(before))
			}
		}
	}
}
