package nfs

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xdr"
)

// FuzzNFSDecode feeds arbitrary bodies to every argument and result
// decoder of both protocol versions. A decoder must return a value or
// an error, never panic; the semantic layer and the record builders
// must accept exactly the bodies the typed decoder accepts, and the
// builders must intern the handles the semantic layer saw; and for v3,
// whatever a decoder accepts must encode to a body that decodes to the
// same value. A second body (proc2, reply2, body2), decoded after the
// first through one Decoder, must decode in every form as it does fresh.
func FuzzNFSDecode(f *testing.F) {
	type sample struct {
		version, proc uint8
		reply         bool
		body          []byte
	}
	var samples []sample
	add := func(version, proc uint32, reply bool, body []byte) {
		samples = append(samples, sample{uint8(version), uint8(proc), reply, append([]byte(nil), body...)})
	}
	for _, v := range []struct {
		version, procs  uint32
		argsFor, resFor func(uint32) any
		encArgs, encRes func(*xdr.Encoder, uint32, any) error
	}{
		{V2, V2NumProcs, v2ArgsFor, v2ResFor, EncodeArgs2, EncodeRes2},
		{V3, V3NumProcs, v3ArgsFor, v3ResFor, EncodeArgs3, EncodeRes3},
	} {
		for proc := uint32(0); proc < v.procs; proc++ {
			e := xdr.NewEncoder(256)
			if v.encArgs(e, proc, v.argsFor(proc)) == nil {
				add(v.version, proc, false, e.Bytes())
			}
			res := v.resFor(proc)
			e.Reset()
			if v.encRes(e, proc, res) == nil {
				add(v.version, proc, true, e.Bytes())
			}
			if res != nil {
				reflect.ValueOf(res).Elem().FieldByName("Status").SetUint(ErrNoEnt)
				e.Reset()
				if v.encRes(e, proc, res) == nil {
					add(v.version, proc, true, e.Bytes())
				}
			}
		}
	}
	long := xdr.NewEncoder(128)
	encodeDirOp(long, &DirOpArgs3{Dir: make(FH, V3MaxFHSize+1), Name: "x"})
	add(V3, V3Lookup, false, long.Bytes())
	// Seeds pair each sample with itself and with the next sample of its
	// version: arguments then the OK result, the OK result then its
	// non-OK twin, that twin then the next procedure's arguments.
	for i, a := range samples {
		f.Add(a.version, a.proc, a.reply, a.body, a.proc, a.reply, a.body)
		if b := samples[(i+1)%len(samples)]; b.version == a.version {
			f.Add(a.version, a.proc, a.reply, a.body, b.proc, b.reply, b.body)
		}
	}

	f.Fuzz(func(t *testing.T, version, proc uint8, reply bool, body []byte, proc2 uint8, reply2 bool, body2 []byte) {
		v := uint32(V2 + version%2)
		p := uint32(proc)
		var s Decoder
		for _, form := range decodeForms {
			form(&s, v, p, reply, body)
			got := form(&s, v, uint32(proc2), reply2, body2)
			if want := form(nil, v, uint32(proc2), reply2, body2); got != want {
				t.Fatalf("v%d proc %d reply=%v after proc %d reply=%v, reused decoder:\n got %s\nwant %s",
					v, proc2, reply2, p, reply, got, want)
			}
		}
		var decoded any
		var err, semErr, recErr error
		var rec core.Record
		var got, want []core.FH
		if reply {
			decoded, err = DecodeRes(v, p, body)
			var info *ReplyInfo
			info, semErr = ParseReply(v, p, body)
			recErr = new(Decoder).ReplyRecord(&rec, v, p, body)
			if info != nil {
				got, want = []core.FH{rec.NewFH}, []core.FH{core.InternFH(info.NewFH.String())}
			}
		} else {
			decoded, err = DecodeArgs(v, p, body)
			var info *CallInfo
			info, semErr = ParseCall(v, p, body)
			recErr = new(Decoder).CallRecord(&rec, v, p, body)
			if info != nil {
				got = []core.FH{rec.FH, rec.FH2}
				want = []core.FH{core.InternFH(info.FH.String()), core.InternFH(info.FH2.String())}
			}
		}
		if (err == nil) != (semErr == nil) || (err == nil) != (recErr == nil) {
			t.Fatalf("v%d proc %d reply=%v: typed decode error %v, semantic error %v, record error %v",
				v, p, reply, err, semErr, recErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("v%d proc %d reply=%v: record handles %v, semantic handles %v", v, p, reply, got, want)
		}
		if err != nil || v != V3 || decoded == nil {
			return
		}
		e := xdr.NewEncoder(len(body))
		encode, decode := EncodeArgs3, DecodeArgs3
		if reply {
			encode, decode = EncodeRes3, DecodeRes3
		}
		if err := encode(e, p, decoded); err != nil {
			t.Fatalf("v3 proc %d reply=%v: decoded %+v but cannot encode it: %v", p, reply, decoded, err)
		}
		again, err := decode(p, e.Bytes())
		if err != nil {
			t.Fatalf("v3 proc %d reply=%v: re-encoded body rejected: %v", p, reply, err)
		}
		if !reflect.DeepEqual(again, decoded) {
			t.Fatalf("v3 proc %d reply=%v: decode∘encode∘decode differs:\n got %+v\nwant %+v", p, reply, again, decoded)
		}
	})
}

// decodeForms decode one body in each form a Decoder offers — typed
// and record — through s, or fresh when s is nil: through the package
// functions, or a new Decoder for the records. Each renders its answer
// before the next decode can overwrite it.
var decodeForms = []func(s *Decoder, version, proc uint32, reply bool, body []byte) string{
	func(s *Decoder, version, proc uint32, reply bool, body []byte) string {
		var v any
		var err error
		switch {
		case s == nil && reply:
			v, err = DecodeRes(version, proc, body)
		case s == nil:
			v, err = DecodeArgs(version, proc, body)
		case reply:
			v, err = s.DecodeRes(version, proc, body)
		default:
			v, err = s.DecodeArgs(version, proc, body)
		}
		return render(v, err)
	},
	func(s *Decoder, version, proc uint32, reply bool, body []byte) string {
		var rec core.Record
		var err error
		if s == nil {
			s = new(Decoder)
		}
		switch {
		case reply:
			err = s.ReplyRecord(&rec, version, proc, body)
		default:
			err = s.CallRecord(&rec, version, proc, body)
		}
		return render(rec, err)
	},
}

// render is a decode's answer as text: the error, or the JSON of the
// value (whose handles render as bytes, so aliased and copied ones
// compare equal).
func render(v any, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	j, err := json.Marshal(v)
	if err != nil {
		return "unrenderable: " + err.Error()
	}
	return string(j)
}
