package nfs

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cutgolden"
	"repro/internal/xdr"
)

// TestDecodeTruncationGolden pins what every v2 and v3 argument and
// result decoder returns for each prefix of a populated body and for the
// body with trailing bytes: the decoded value, or the first error. The
// samples are the round-trip tests' own, plus each result with a
// non-OK status, plus one procedure past the table. Every sample is
// rendered a second time through one Decoder, which decodes the sample
// before it whole ahead of each cut, and must render the same golden: a
// field the reuse failed to overwrite would show on some line (an OK
// result's count in its non-OK twin, say). Delete
// testdata/truncation.golden and rerun to regenerate it.
func TestDecodeTruncationGolden(t *testing.T) {
	type codec struct {
		version, procs        uint32
		argsFor, resFor       func(uint32) any
		encodeArgs, encodeRes func(*xdr.Encoder, uint32, any) error
	}
	codecs := []codec{
		{V2, V2NumProcs, v2ArgsFor, v2ResFor, EncodeArgs2, EncodeRes2},
		{V3, V3NumProcs, v3ArgsFor, v3ResFor, EncodeArgs3, EncodeRes3},
	}
	encode := func(enc func(*xdr.Encoder, uint32, any) error, proc uint32, v any) []byte {
		e := xdr.NewEncoder(512)
		if err := enc(e, proc, v); err != nil {
			// A procedure the encoder rejects still gets a body: one
			// zero word, which a result decoder reads as the status.
			return []byte{0, 0, 0, 0}
		}
		return e.Bytes()
	}
	var fresh, reused strings.Builder
	var dec Decoder
	before := func() {} // decodes the previous sample whole through dec
	// render renders one sample through a fresh and the reused decode.
	render := func(name string, body []byte, decode, reuse func([]byte) (any, error)) {
		cutgolden.Render(&fresh, name, body, decode)
		prev := before
		cutgolden.Render(&reused, name, body, func(cut []byte) (any, error) {
			prev()
			return reuse(cut)
		})
		before = func() { _, _ = reuse(body) }
	}
	for _, c := range codecs {
		for proc := uint32(0); proc <= c.procs; proc++ {
			proc := proc
			name := fmt.Sprintf("v%d %s", c.version, ProcName(c.version, proc))
			freshArgs := func(body []byte) (any, error) { return DecodeArgs(c.version, proc, body) }
			freshRes := func(body []byte) (any, error) { return DecodeRes(c.version, proc, body) }
			reuseArgs := func(body []byte) (any, error) { return dec.DecodeArgs(c.version, proc, body) }
			reuseRes := func(body []byte) (any, error) { return dec.DecodeRes(c.version, proc, body) }
			render(name+" args", encode(c.encodeArgs, proc, c.argsFor(proc)), freshArgs, reuseArgs)
			render(name+" res", encode(c.encodeRes, proc, c.resFor(proc)), freshRes, reuseRes)
			if res := c.resFor(proc); res != nil {
				reflect.ValueOf(res).Elem().FieldByName("Status").SetUint(ErrNoEnt)
				render(name+" res noent", encode(c.encodeRes, proc, res), freshRes, reuseRes)
			}
		}
	}
	// Bodies the simulators never send but a capture may carry: every
	// settable attribute, and the fields the decoders reject by value.
	mode, id, size, tm := uint32(0o600), uint32(7), uint64(1<<33), Time{Sec: 9, Nsec: 100}
	full := Sattr{Mode: &mode, UID: &id, GID: &id, Size: &size, Atime: &tm, Mtime: &tm}
	hostile := []struct {
		name  string
		proc  uint32
		v2    bool
		build func(e *xdr.Encoder)
	}{
		{"v2 setattr args all set", V2Setattr, true, func(e *xdr.Encoder) {
			encodeFH2(e, MakeFH(7))
			encodeSattr2(e, &full)
		}},
		{"v3 setattr args all set", V3Setattr, false, func(e *xdr.Encoder) {
			encodeFH3(e, MakeFH(7))
			encodeSattr3(e, &full)
		}},
		{"v3 setattr args time_how 3", V3Setattr, false, func(e *xdr.Encoder) {
			encodeFH3(e, MakeFH(7))
			for i := 0; i < 4; i++ {
				e.PutBool(false)
			}
			e.PutUint32(3)
		}},
		{"v3 lookup args fh of 65 bytes", V3Lookup, false, func(e *xdr.Encoder) {
			encodeDirOp(e, &DirOpArgs3{Dir: make(FH, V3MaxFHSize+1), Name: "x"})
		}},
		{"v3 create args exclusive", V3Create, false, func(e *xdr.Encoder) {
			encodeDirOp(e, &DirOpArgs3{Dir: MakeFH(2), Name: "excl"})
			e.PutUint32(2)
			e.PutUint64(0xfeed)
		}},
	}
	for _, h := range hostile {
		h := h
		e := xdr.NewEncoder(256)
		h.build(e)
		version := uint32(V3)
		if h.v2 {
			version = V2
		}
		render(h.name, e.Bytes(),
			func(body []byte) (any, error) { return DecodeArgs(version, h.proc, body) },
			func(body []byte) (any, error) { return dec.DecodeArgs(version, h.proc, body) })
	}
	golden := filepath.Join("testdata", "truncation.golden")
	cutgolden.Check(t, golden, fresh.String())
	cutgolden.Check(t, golden, reused.String())
}
