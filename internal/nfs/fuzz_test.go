package nfs

import (
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
// same value.
func FuzzNFSDecode(f *testing.F) {
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
				f.Add(uint8(v.version), uint8(proc), false, append([]byte(nil), e.Bytes()...))
			}
			res := v.resFor(proc)
			e.Reset()
			if v.encRes(e, proc, res) == nil {
				f.Add(uint8(v.version), uint8(proc), true, append([]byte(nil), e.Bytes()...))
			}
			if res != nil {
				reflect.ValueOf(res).Elem().FieldByName("Status").SetUint(ErrNoEnt)
				e.Reset()
				if v.encRes(e, proc, res) == nil {
					f.Add(uint8(v.version), uint8(proc), true, append([]byte(nil), e.Bytes()...))
				}
			}
		}
	}
	long := xdr.NewEncoder(128)
	encodeDirOp(long, &DirOpArgs3{Dir: make(FH, V3MaxFHSize+1), Name: "x"})
	f.Add(uint8(V3), uint8(V3Lookup), false, long.Bytes())

	f.Fuzz(func(t *testing.T, version, proc uint8, reply bool, body []byte) {
		v := uint32(V2 + version%2)
		p := uint32(proc)
		var decoded any
		var err, semErr, recErr error
		var rec core.Record
		var got, want []core.FH
		if reply {
			decoded, err = DecodeRes(v, p, body)
			var info *ReplyInfo
			info, semErr = ParseReply(v, p, body)
			recErr = ReplyRecord(&rec, v, p, body)
			if info != nil {
				got, want = []core.FH{rec.NewFH}, []core.FH{core.InternFH(info.NewFH.String())}
			}
		} else {
			decoded, err = DecodeArgs(v, p, body)
			var info *CallInfo
			info, semErr = ParseCall(v, p, body)
			recErr = CallRecord(&rec, v, p, body)
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
