package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/stats"
)

// The round-trip, merge, clone and re-shard properties of every reducer
// are pinned by the contract harness in contract_test.go. This file
// owns what needs hand-built payloads: Decode's validation paths, which
// must reject a foreign configuration or a hostile value with the
// decoder's sticky error rather than fold garbage.

// stateOps is a fixed stream covering the paths the reducers branch
// on: creates, lookups, reads, writes with wcc sizes, a rename, removes,
// categorized names (lock, mailbox, temp), and a read hours later.
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
		mk(50, "rename", func(o *core.Op) { o.FH = dir; o.Name = "plain"; o.FH2 = dir; o.Name2 = "renamed" }),
		mk(55, "remove", func(o *core.Op) { o.FH = dir; o.Name = "file.lock" }),
		mk(70, "remove", func(o *core.Op) { o.FH = dir; o.Name = "a.tmp" }),
		mk(7205, "read", func(o *core.Op) { o.FH = core.InternFH("f1"); o.Count = 4096; o.RCount = 4096 }),
	)
}

func encodeSection(t *testing.T, enc func(*state.Encoder)) []byte {
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

func decodeSection(t *testing.T, blob []byte, dec func(*state.Decoder)) error {
	t.Helper()
	f, err := state.ReadFile(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	d, ok := f.Section("x")
	if !ok {
		t.Fatalf("section missing from encoded file")
	}
	dec(d)
	if err := d.Err(); err != nil {
		return err
	}
	return d.Finish()
}

// decodeWantErr runs a decode that must fail with a message containing
// want, wrapped in the decoder's sticky ErrCorrupt.
func decodeWantErr(t *testing.T, blob []byte, dec func(*state.Decoder), want string) {
	t.Helper()
	err := decodeSection(t, blob, dec)
	if !errors.Is(err, state.ErrCorrupt) {
		t.Fatalf("decode error %v does not wrap state.ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("decode error %q does not contain %q", err, want)
	}
}

// foreignConfig checks one configured reducer: a state written under
// the other configuration is rejected, and the receiver — already
// holding state of its own — is left exactly as it was.
func foreignConfig[R Reducer[R]](mk, other func() R, want string) func(*testing.T) {
	return func(t *testing.T) {
		ops := stateOps()
		fed := func(mk func() R) R {
			r := mk()
			for _, op := range ops {
				r.Add(op)
			}
			return r
		}
		blob := encodeSection(t, fed(other).Encode)
		recv, twin := fed(mk), fed(mk)
		decodeWantErr(t, blob, recv.Decode, want)
		if !reflect.DeepEqual(recv, twin) {
			t.Fatalf("rejected decode changed the receiver:\n got %+v\nwant %+v", recv, twin)
		}
		// The same receiver still accepts a state of its own configuration.
		if err := decodeSection(t, encodeSection(t, fed(mk).Encode), recv.Decode); err != nil {
			t.Fatalf("decode under the receiver's own configuration: %v", err)
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
		"reorder-count":    foreignConfig(sweep(0, 5, 10), sweep(0, 5), "window count"),
		"reorder-value":    foreignConfig(sweep(0, 5, 10), sweep(0, 5, 20), "window 2"),
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

func TestStateDecodeValidation(t *testing.T) {
	t.Run("bucket-width-mismatch", func(t *testing.T) {
		b := stats.NewOpenTimeBuckets(1800)
		b.Add(10, 1)
		blob := encodeSection(t, func(e *state.Encoder) { encodeBuckets(e, b) })
		tgt := stats.NewOpenTimeBuckets(3600)
		decodeWantErr(t, blob, func(d *state.Decoder) { decodeBuckets(d, tgt) }, "does not match accumulator width")
	})
	t.Run("bucket-index-overflow", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.F64(3600)
			e.Uvarint(1)
			e.Uvarint(maxBucketIndex + 1)
			e.F64(1)
		})
		tgt := stats.NewOpenTimeBuckets(3600)
		decodeWantErr(t, blob, func(d *state.Decoder) { decodeBuckets(d, tgt) }, "exceeds limit")
	})
	t.Run("blocklife-finalized", func(t *testing.T) {
		s := NewBlockLifeStream(0, 50, 50)
		for _, op := range stateOps() {
			s.Add(op)
		}
		s.Result()
		blob := encodeSection(t, s.Encode)
		tgt := NewBlockLifeStream(0, 50, 50)
		decodeWantErr(t, blob, tgt.Decode, "finalized")
	})
	t.Run("peakhour-category-out-of-range", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.F64(0)
			e.F64(100)
			e.Uvarint(1)
			e.FH(core.InternFH("f0"))
			e.Uvarint(uint64(numCategories) + 7)
		})
		tgt := NewPeakHourInstances(0, 100)
		decodeWantErr(t, blob, tgt.Decode, "out of range")
	})
	t.Run("names-category-count-mismatch", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.Uvarint(uint64(numCategories) + 1)
		})
		tgt := NewNamesStream()
		decodeWantErr(t, blob, tgt.Decode, "does not match this build's")
	})
	t.Run("names-instance-category-out-of-range", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.Uvarint(uint64(numCategories))
			e.Uvarint(1)
			e.FH(core.InternFH("f0"))
			e.String("bad")
			e.Uvarint(uint64(numCategories) + 3)
			e.F64(1)
			e.F64(0)
			e.Bool(false)
			e.Uvarint(0)
			e.Varint(0)
			e.Varint(0)
			e.Bool(true)
		})
		tgt := NewNamesStream()
		decodeWantErr(t, blob, tgt.Decode, "out of range")
	})
}
