package rpc

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cutgolden"
	"repro/internal/xdr"
)

// TestDecodeTruncationGolden pins what Decode and DecodeAuthSys return
// for each prefix of a call, the reply shapes, and an AUTH_SYS body, and
// for each with trailing bytes: the decoded value, or the first error.
// Every sample is rendered a second time through one Decoder and one
// AuthSysBody, which Decoder.Decode and DecodeAuthSysInto fill with the
// sample before it whole ahead of each cut, and must render the same
// golden: a field the reuse failed to overwrite would show on some line
// (the accepted reply's results in the next reply, say). Delete
// testdata/truncation.golden and rerun to regenerate it.
func TestDecodeTruncationGolden(t *testing.T) {
	cred := xdr.NewEncoder(64)
	sampleAuthSys().Encode(cred)
	call := &CallHeader{
		XID: 0xCAFEBABE, Program: ProgramNFS, Version: 3, Proc: 6,
		Cred: OpaqueAuth{Flavor: AuthSys, Body: cred.Bytes()},
		Verf: OpaqueAuth{Flavor: AuthNone, Body: []byte{1, 2, 3}},
		Args: []byte{0, 0, 0, 4, 1, 2, 3, 4},
	}
	messages := []struct {
		name  string
		build func(e *xdr.Encoder)
	}{
		{"call", func(e *xdr.Encoder) { EncodeCall(e, call) }},
		{"call rpc version 3", func(e *xdr.Encoder) {
			EncodeCall(e, call)
			e.Bytes()[11] = 3
		}},
		{"message type 99", func(e *xdr.Encoder) {
			e.PutUint32(1)
			e.PutUint32(99)
		}},
		{"reply accepted", func(e *xdr.Encoder) {
			EncodeReply(e, &ReplyHeader{XID: 7, ReplyStat: MsgAccepted, AcceptStat: Success,
				Verf: OpaqueAuth{Flavor: AuthNone, Body: []byte{9}}, Results: []byte{0, 0, 0, 0, 9, 9, 9, 9}})
		}},
		{"reply prog unavail", func(e *xdr.Encoder) {
			EncodeReply(e, &ReplyHeader{XID: 8, ReplyStat: MsgAccepted, AcceptStat: ProgUnavail})
		}},
		{"reply denied", func(e *xdr.Encoder) {
			EncodeReply(e, &ReplyHeader{XID: 9, ReplyStat: MsgDenied})
		}},
	}
	var fresh, reused strings.Builder
	// render renders one sample fresh and through reuse, which must
	// return the storage it reuses.
	var prev []byte
	render := func(name string, sample []byte, decode, reuse func([]byte) (any, error)) {
		cutgolden.Render(&fresh, name, sample, decode)
		before := prev
		cutgolden.Render(&reused, name, sample, func(cut []byte) (any, error) {
			if before != nil {
				_, _ = reuse(before)
			}
			return reuse(cut)
		})
		prev = sample
	}
	var dec Decoder
	for _, m := range messages {
		e := xdr.NewEncoder(128)
		m.build(e)
		render(m.name, e.Bytes(),
			func(msg []byte) (any, error) { return Decode(msg) },
			func(msg []byte) (any, error) { return dec.Decode(msg) })
	}
	prev = nil
	tooMany := xdr.NewEncoder(128)
	(&AuthSysBody{Stamp: 1, MachineName: "m", GIDs: make([]uint32, 17)}).Encode(tooMany)
	var auth AuthSysBody
	for _, a := range []struct {
		name string
		body []byte
	}{{"auth_sys", cred.Bytes()}, {"auth_sys 17 gids", tooMany.Bytes()}} {
		render(a.name, a.body,
			func(body []byte) (any, error) { return DecodeAuthSys(body) },
			func(body []byte) (any, error) { return &auth, DecodeAuthSysInto(&auth, body) })
	}
	golden := filepath.Join("testdata", "truncation.golden")
	cutgolden.Check(t, golden, fresh.String())
	cutgolden.Check(t, golden, reused.String())
}
