package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/stats"
)

// The round-trip, merge, clone and re-shard properties of every reducer
// are pinned by the contract harness in contract_test.go. This file
// owns what needs hand-built payloads: the validation paths of State,
// which must reject a foreign configuration or a hostile value with the
// codec's sticky error rather than fold garbage, and the fuzz target
// that drives every reducer's layout with arbitrary section bytes.

// stateOps is a fixed stream covering the paths the reducers branch
// on: creates, lookups, reads, writes with wcc sizes, a rename, removes
// (with the Target the pipeline's router resolves), categorized names
// (lock, mailbox, temp), and a read hours later.
func stateOps() []*core.Op {
	dir := core.InternFH("d0")
	mk := func(t float64, proc string, mut func(*core.Op)) *core.Op {
		o := &core.Op{T: t, Replied: true, Proc: core.MustProc(proc), Client: 1}
		mut(o)
		return o
	}
	var ops []*core.Op
	for i, name := range []string{"file.lock", "inbox", "a.tmp", "notes.c", "plain"} {
		fh := core.InternFH(fmt.Sprintf("f%d", i))
		t0 := float64(1 + i*9)
		ops = append(ops,
			mk(t0, "create", func(o *core.Op) { o.FH = dir; o.Name = name; o.NewFH = fh }),
			mk(t0+1, "lookup", func(o *core.Op) { o.FH = dir; o.Name = name; o.NewFH = fh }),
			mk(t0+2, "write", func(o *core.Op) {
				o.FH = fh
				o.Count = 16384
				o.RCount = 16384
				o.HasPre = true
				o.Size = 16384
			}),
			mk(t0+3, "read", func(o *core.Op) { o.FH = fh; o.Count = 8192; o.RCount = 8192 }),
		)
	}
	return append(ops,
		mk(50, "rename", func(o *core.Op) {
			o.FH = dir
			o.Name = "plain"
			o.FH2 = dir
			o.Name2 = "renamed"
			o.Target = core.InternFH("f4")
		}),
		mk(55, "remove", func(o *core.Op) { o.FH = dir; o.Name = "file.lock"; o.Target = core.InternFH("f0") }),
		mk(70, "remove", func(o *core.Op) { o.FH = dir; o.Name = "a.tmp"; o.Target = core.InternFH("f2") }),
		mk(7205, "read", func(o *core.Op) { o.FH = core.InternFH("f1"); o.Count = 4096; o.RCount = 4096 }),
	)
}

// stateful is what the tests here need of a reducer.
type stateful interface {
	Add(op *core.Op)
	State(c *state.Codec)
}

// fed returns r after every op of stateOps.
func fed[R stateful](r R) R {
	for _, op := range stateOps() {
		r.Add(op)
	}
	return r
}

// encodeSection writes one section "x" through enc: hand-built payloads
// use the encoder's value API, reducers their State.
func encodeSection(t testing.TB, enc func(*state.Encoder)) []byte {
	t.Helper()
	e := state.NewEncoder()
	e.Section("x")
	enc(e)
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func encodeState(t testing.TB, r stateful) []byte {
	t.Helper()
	return encodeSection(t, func(e *state.Encoder) { r.State(e.Codec()) })
}

// decodeSection decodes section "x" of blob through code and checks
// that it consumed the whole section.
func decodeSection(blob []byte, code func(*state.Codec)) error {
	f, err := state.Parse(blob)
	if err != nil {
		return err
	}
	d, ok := f.Section("x")
	if !ok {
		return fmt.Errorf("section x missing from encoded file")
	}
	code(d.Codec())
	return d.Finish()
}

// decodeWantErr runs a decode that must fail with a message containing
// want, wrapped in the codec's sticky ErrCorrupt.
func decodeWantErr(t *testing.T, blob []byte, code func(*state.Codec), want string) {
	t.Helper()
	err := decodeSection(blob, code)
	if !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("decode error %v does not wrap state.ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("decode error %q does not contain %q", err, want)
	}
}

// foreignConfig checks one configured reducer: a state written under
// the other configuration is rejected, and the receiver — already
// holding state of its own — is left exactly as it was. A fresh
// receiver of the right configuration reads the state back to the same
// bytes.
func foreignConfig[R Reducer[R]](mk, other func() R, want string) func(*testing.T) {
	return func(t *testing.T) {
		recv, twin := fed(mk()), fed(mk())
		decodeWantErr(t, encodeState(t, fed(other())), recv.State, want)
		if !reflect.DeepEqual(recv, twin) {
			t.Fatalf("rejected decode changed the receiver:\n got %+v\nwant %+v", recv, twin)
		}
		own, fresh := encodeState(t, recv), mk()
		if err := decodeSection(own, fresh.State); err != nil {
			t.Fatalf("decode under the receiver's own configuration: %v", err)
		}
		if !bytes.Equal(encodeState(t, fresh), own) {
			t.Fatal("decoded state re-encodes to different bytes")
		}
	}
}

// TestDecodeRejectsForeignConfig covers every reducer that has a
// configuration, one case per configured value.
func TestDecodeRejectsForeignConfig(t *testing.T) {
	runs := func(cfg RunConfig) func() *RunDetector {
		return func() *RunDetector { return NewRunDetector(cfg) }
	}
	sweep := func(w ...float64) func() *ReorderSweeper {
		return func() *ReorderSweeper { return NewReorderSweeper(w) }
	}
	life := func(start, phase, margin float64) func() *BlockLifeStream {
		return func() *BlockLifeStream { return NewBlockLifeStream(start, phase, margin) }
	}
	peak := func(from, to float64) func() *PeakHourInstances {
		return func() *PeakHourInstances { return NewPeakHourInstances(from, to) }
	}
	warm := func(w float64) func() *HierarchyCoverage {
		return func() *HierarchyCoverage { return NewHierarchyCoverage(w) }
	}
	base := RunConfig{ReorderWindow: 0.01, IdleGap: 30, JumpBlocks: 10}
	for name, run := range map[string]func(*testing.T){
		"runs-window":      foreignConfig(runs(base), runs(RunConfig{ReorderWindow: 0.005, IdleGap: 30, JumpBlocks: 10}), "run config"),
		"runs-idle-gap":    foreignConfig(runs(base), runs(RunConfig{ReorderWindow: 0.01, IdleGap: 60, JumpBlocks: 10}), "run config"),
		"runs-jump":        foreignConfig(runs(base), runs(RunConfig{ReorderWindow: 0.01, IdleGap: 30, JumpBlocks: 1}), "run config"),
		"reorder-count":    foreignConfig(sweep(0, 5, 10), sweep(0, 5), "reorder windows"),
		"reorder-value":    foreignConfig(sweep(0, 5, 10), sweep(0, 5, 20), "reorder windows"),
		"blocklife-start":  foreignConfig(life(0, 50, 50), life(10, 50, 50), "block-life window"),
		"blocklife-phase":  foreignConfig(life(0, 50, 50), life(0, 60, 50), "block-life window"),
		"blocklife-margin": foreignConfig(life(0, 50, 50), life(0, 50, 40), "block-life window"),
		"peakhour-from":    foreignConfig(peak(0, 100), peak(50, 100), "peak-hour window"),
		"peakhour-to":      foreignConfig(peak(0, 100), peak(0, 150), "peak-hour window"),
		"hierarchy-warmup": foreignConfig(warm(600), warm(60), "hierarchy warmup"),
	} {
		t.Run(name, run)
	}
}

// runConfig writes the configuration of NewRunDetector(DefaultRunConfig(10)).
func runConfig(e *state.Encoder) {
	cfg := DefaultRunConfig(10)
	e.F64(cfg.ReorderWindow)
	e.F64(cfg.IdleGap)
	e.Varint(cfg.JumpBlocks)
}

func TestStateDecodeValidation(t *testing.T) {
	t.Run("bucket-width-mismatch", func(t *testing.T) {
		b := stats.NewOpenTimeBuckets(1800)
		b.Add(10, 1)
		blob := encodeSection(t, func(e *state.Encoder) { bucketsState(e.Codec(), b) })
		tgt := stats.NewOpenTimeBuckets(3600)
		decodeWantErr(t, blob, func(c *state.Codec) { bucketsState(c, tgt) }, "does not match accumulator width")
	})
	t.Run("bucket-index-overflow", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.F64(3600)
			e.Uvarint(1)
			e.Uvarint(maxBucketIndex + 1)
			e.F64(1)
		})
		tgt := stats.NewOpenTimeBuckets(3600)
		decodeWantErr(t, blob, func(c *state.Codec) { bucketsState(c, tgt) }, "out of range")
	})
	t.Run("blocklife-finalized", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.F64(0)
			e.F64(50)
			e.F64(50)
			e.Bool(true)
		})
		decodeWantErr(t, blob, NewBlockLifeStream(0, 50, 50).State, "finalized")
	})
	t.Run("peakhour-category-out-of-range", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.F64(0)
			e.F64(100)
			e.Uvarint(1)
			e.FH(core.InternFH("f0"))
			e.Uvarint(uint64(numCategories) + 7)
		})
		decodeWantErr(t, blob, NewPeakHourInstances(0, 100).State, "out of range")
	})
	t.Run("names-category-count-mismatch", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.Uvarint(uint64(numCategories) + 1)
		})
		decodeWantErr(t, blob, NewNamesStream().State, "does not match this build's")
	})
	// A category that would wrap negative when narrowed to an int first
	// is rejected as well as one just past the end.
	for name, cat := range map[string]uint64{
		"names-instance-category-out-of-range": uint64(numCategories) + 3,
		"names-instance-category-wraps":        1<<63 + 2,
	} {
		cat := cat
		t.Run(name, func(t *testing.T) {
			blob := encodeSection(t, func(e *state.Encoder) {
				e.Uvarint(uint64(numCategories))
				e.Uvarint(1)
				e.FH(core.InternFH("f0"))
				e.String("bad")
				e.Uvarint(cat)
				e.F64(1)
				e.F64(0)
				e.Bool(false)
				e.Uvarint(0)
				e.Varint(0)
				e.Varint(0)
				e.Bool(true)
			})
			decodeWantErr(t, blob, NewNamesStream().State, "out of range")
		})
	}
	// A run table is coded entry by entry; tablesBlob writes one without
	// the checks an encoding codec makes.
	tablesBlob := func(t *testing.T, tabs *RunTables) []byte {
		return encodeSection(t, func(e *state.Encoder) {
			for _, row := range tabs.rows() {
				for _, n := range row {
					e.Uvarint(n)
				}
			}
		})
	}
	decodeTables := func(c *state.Codec) { new(RunTables).state(c) }
	for name, c := range map[string]struct {
		tabs RunTables
		want string
	}{
		"runs-table3-figure5-mismatch": {RunTables{kinds: [3][3]uint64{RunRead: {PatternEntire: 2}}, binRuns: [3][runBins]uint64{RunRead: {1}}}, "in Table 3"},
		"runs-metric-sum-over-count": {RunTables{
			kinds:   [3][3]uint64{RunWrite: {PatternRandom: 1}},
			binRuns: [3][runBins]uint64{RunWrite: {3: 1}},
			metrics: [2][2][runBins]uint64{RunWrite: {{3: fixedOne + 1}}},
		}, "metric sum"},
		"runs-count-overflow": {RunTables{kinds: [3][3]uint64{RunRead: {fixedOne, 0, 0}}, binRuns: [3][runBins]uint64{RunRead: {fixedOne}}}, "out of range"},
	} {
		c := c
		t.Run(name, func(t *testing.T) { decodeWantErr(t, tablesBlob(t, &c.tabs), decodeTables, c.want) })
	}
	t.Run("runs-open-run-counts", func(t *testing.T) {
		r := openRun{n: 2, reads: 1, seqK: 2, seqK1: 1}
		blob := encodeSection(t, func(e *state.Encoder) {
			e.Varint(r.n)
			e.Varint(r.reads)
			e.Uvarint(0)
			e.Uvarint(0)
			e.Varint(r.seqK)
			e.Varint(r.seqK1)
			e.Bool(false)
			e.F64(0)
			e.Uvarint(0)
			e.F64(0)
			e.Uvarint(0)
			e.Uvarint(0)
			e.Bool(false)
		})
		decodeWantErr(t, blob, func(c *state.Codec) { new(openRun).state(c) }, "sequential steps")
	})
	t.Run("access-count-overflow", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			runConfig(e)
			e.Uvarint(1)
			e.FH(core.InternFH("f0"))
			e.Uvarint(1)
			e.F64(1)
			e.Uvarint(0)
			e.Uvarint(math.MaxUint32 + 1)
			e.Bool(false)
			e.Bool(false)
			e.Uvarint(0)
		})
		decodeWantErr(t, blob, NewRunDetector(DefaultRunConfig(10)).State, "out of range")
	})
}

// TestEncodeRefusesUnreadableState: a state the decoder would reject is
// not written either — encoding a finalized block-life stream fails at
// Flush.
func TestEncodeRefusesUnreadableState(t *testing.T) {
	s := fed(NewBlockLifeStream(0, 50, 50))
	s.Result()
	e := state.NewEncoder()
	e.Section("x")
	s.State(e.Codec())
	if err := e.Flush(io.Discard); err == nil || !strings.Contains(err.Error(), "finalized") {
		t.Fatalf("encoding a finalized stream: %v", err)
	}
}

// TestHostileCountAllocatesByBytes: an access count equal to the
// section's remaining bytes (1 MiB) with no access that parses behind
// it fails as corrupt, and decoding allocates in proportion to what is
// actually there — not the 32 MiB a slice sized by the count would take.
func TestHostileCountAllocatesByBytes(t *testing.T) {
	const count = 1 << 20
	blob := encodeSection(t, func(e *state.Encoder) {
		runConfig(e)
		e.Uvarint(1)
		e.FH(core.InternFH("f0"))
		e.Uvarint(count)
		// A 3-byte length prefix and its bytes: count bytes in all, and
		// the first access's offset runs into an overlong varint.
		e.Bytes(bytes.Repeat([]byte{0xff}, count-3))
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeSection(blob, NewRunDetector(DefaultRunConfig(10)).State)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("hostile count: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Fatalf("decoding a %d-byte section allocated %d bytes", len(blob), alloc)
	}
}

// The fuzz target's container: a fixed dictionary holding every handle
// and procedure stateOps names, so real states make seeds.
var (
	fuzzFHs   = []string{"d0", "f0", "f1", "f2", "f3", "f4"}
	fuzzProcs = []string{"create", "lookup", "write", "read", "rename", "remove"}
)

// reducerKinds is every reducer under a fixed configuration.
var reducerKinds = []func() stateful{
	func() stateful { return NewSummary(1) },
	func() stateful { return NewHourlyOpen() },
	func() stateful { return NewRunDetector(DefaultRunConfig(10)) },
	func() stateful { return NewReorderSweeper([]float64{0, 5, 10}) },
	func() stateful { return NewBlockLifeStream(0, 50, 50) },
	func() stateful { return NewPeakHourInstances(0, 100) },
	func() stateful { return NewMailboxShare() },
	func() stateful { return NewHierarchyCoverage(600) },
	func() stateful { return NewNamesStream() },
}

// container wraps payload as the one section "x" of a state file whose
// dictionaries are fuzzFHs and fuzzProcs, assembled from the layout the
// state package documents, under a freshly computed body checksum.
func container(payload []byte) []byte {
	var body []byte
	str := func(s string) {
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	for _, dict := range [][]string{fuzzFHs, fuzzProcs} {
		body = binary.AppendUvarint(body, uint64(len(dict)))
		for _, s := range dict {
			str(s)
		}
	}
	body = binary.AppendUvarint(body, 1)
	str("x")
	str(string(payload))
	sum := sha256.Sum256(body)
	out := binary.LittleEndian.AppendUint16([]byte("nfsstate"), state.Version)
	return append(append(out, sum[:]...), body...)
}

// seedPayload returns r's state as a section payload over the fuzz
// dictionary: a first section names the dictionary entries in order, so
// section "x" indexes them exactly as container lays them out. The
// file is read back by the same documented layout.
func seedPayload(tb testing.TB, r stateful) []byte {
	tb.Helper()
	e := state.NewEncoder()
	e.Section("dict")
	for _, s := range fuzzFHs {
		e.FH(core.InternFH(s))
	}
	for _, s := range fuzzProcs {
		e.Proc(core.MustProc(s))
	}
	e.Section("x")
	r.State(e.Codec())
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		tb.Fatal(err)
	}
	b := buf.Bytes()[len("nfsstate")+2+sha256.Size:]
	next := func() []byte {
		n, k := binary.Uvarint(b)
		v := b[k : k+int(n)]
		b = b[k+int(n):]
		return v
	}
	var dicts [2][]string
	for i := range dicts {
		n, k := binary.Uvarint(b)
		b = b[k:]
		for j := uint64(0); j < n; j++ {
			dicts[i] = append(dicts[i], string(next()))
		}
	}
	if !slices.Equal(dicts[0], fuzzFHs) || !slices.Equal(dicts[1], fuzzProcs) {
		tb.Fatalf("state names entries outside the fuzz dictionary: %q %q", dicts[0], dicts[1])
	}
	b = b[1:] // section count 2
	next()    // "dict"
	next()    // its payload
	next()    // "x"
	return next()
}

// FuzzReducerState drives every reducer's State with arbitrary section
// bytes: byte 0 picks the reducer, the rest is the payload of a valid
// container. Decoding must not panic and must fail only with
// state.ErrCorrupt; a clean decode must re-encode to bytes that decode
// and encode to themselves.
func FuzzReducerState(f *testing.F) {
	for i, mk := range reducerKinds {
		f.Add(append([]byte{byte(i)}, seedPayload(f, fed(mk()))...))
		f.Add(append([]byte{byte(i)}, seedPayload(f, mk())...))
	}
	// A runs state with tables that hold a run: f1's third run closes
	// its second, past its first, once a fourth leaves the window.
	runs := fed(reducerKinds[2]().(*RunDetector))
	runs.Add(mkOp(7300, "f1", false, 0, 4096, 4096, false))
	runs.Add(mkOp(7400, "f1", true, 0, 4096, 4096, false))
	if runs.tables == (RunTables{}) {
		f.Fatal("the seed's run tables are empty")
	}
	f.Add(append([]byte{2}, seedPayload(f, runs)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mk := reducerKinds[int(data[0])%len(reducerKinds)]
		r := mk()
		if err := decodeSection(container(data[1:]), r.State); err != nil {
			if !errors.Is(err, state.ErrCorrupt) {
				t.Fatalf("unstructured error: %v", err)
			}
			return
		}
		once := encodeState(t, r)
		again := mk()
		if err := decodeSection(once, again.State); err != nil {
			t.Fatalf("re-encoded state does not decode: %v", err)
		}
		if twice := encodeState(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("encode → decode → encode is not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
